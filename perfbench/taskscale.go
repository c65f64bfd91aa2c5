package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// taskScale is the task lifecycle at scale: short pthread-style tasks
// created and joined in waves, a fan-in that parks a large population
// on one futex word and drains it with one FutexWake, and futex-table
// churn over distinct words. One op = one task lifecycle. It drives the
// kernel directly and bypasses uctx, blt, fs, aio, metrics and probe.
type taskScale struct {
	m                     *arch.Machine
	spawn, waiters, words int
	codes                 []int // seeded exit codes, cycled over children
}

// censusTasks is the population parkCensus parks for workloads whose
// passes park no large one: enough that the kernel's fixed footprint is
// a small share of the per-task figure.
const censusTasks = 1024

// spawnWave is the live-task bound of the spawn-join phase, the way a
// thread pool would bound it; churnBatch likewise bounds the churn.
const (
	spawnWave  = 256
	churnBatch = 64
)

func newTaskScale(seed uint64, sc scale) workload {
	rng := rand.New(rand.NewPCG(seed, 0x7a5c))
	ts := &taskScale{m: arch.Wallaby(), spawn: 200_000, waiters: 200_000 - rng.IntN(2048), words: 16_000}
	if sc == toy {
		ts.spawn, ts.waiters, ts.words = 2_000, 1_000-rng.IntN(64), 256
	}
	ts.codes = make([]int, 1021)
	for i := range ts.codes {
		ts.codes[i] = rng.IntN(256)
	}
	return ts
}

func (ts *taskScale) sizes() map[string]int {
	return map[string]int{"spawn_join_tasks": ts.spawn, "wave": spawnWave, "fanin_waiters": ts.waiters,
		"churn_words": ts.words, "churn_batch": churnBatch}
}

func (ts *taskScale) censusTasks() int { return ts.waiters }

func (ts *taskScale) pass(r *recorder) {
	tr := r.tr
	t0 := time.Now()
	e := sim.New()
	k := kernel.New(e, ts.m)
	done := 0
	var bodyErr error
	root := k.NewTask("perfbench-root", k.NewAddressSpace(), func(rt *kernel.Task) int {
		tr.begin("spawn-join")
		bodyErr = ts.spawnJoin(rt, r, &done)
		tr.end()
		if bodyErr != nil {
			return 1
		}
		tr.begin("fan-in")
		var c census
		c, bodyErr = fanIn(k, rt, ts.waiters, tr)
		tr.end()
		if bodyErr != nil {
			return 1
		}
		r.group(ts.waiters, c.wall, nil)
		done += ts.waiters
		r.liveBytes = append(r.liveBytes, c.live)
		r.stackBytes = append(r.stackBytes, c.stack)
		tr.begin("churn")
		bodyErr = ts.churn(k, rt, r, &done)
		tr.end()
		if bodyErr != nil {
			return 1
		}
		return 0
	})
	k.Start(root, 0)
	tr.begin("sim.Engine.Run")
	err := e.Run()
	tr.end()
	if err == nil {
		err = bodyErr
	}
	if err == nil && (!root.Exited() || root.ExitCode() != 0) {
		err = fmt.Errorf("task-scale: root exit %d", root.ExitCode())
	}
	if total := ts.spawn + ts.waiters + ts.words; done < total {
		if err == nil {
			err = errors.New("task-scale: pass ended early")
		}
		r.group(total-done, time.Since(t0), err)
	}
	r.syscalls += k.Syscalls()
	r.ctxSwitches += k.ContextSwitches()
	r.kernWall += time.Since(t0)
}

// spawnJoin clones and joins ts.spawn tasks in waves; each child exits
// with its seeded code, which Join must return.
func (ts *taskScale) spawnJoin(rt *kernel.Task, r *recorder, done *int) error {
	kids := make([]*kernel.Task, 0, spawnWave)
	for n := 0; n < ts.spawn; {
		b := min(spawnWave, ts.spawn-n)
		w0 := time.Now()
		kids = kids[:0]
		r.tr.begin("kernel.Clone")
		for i := 0; i < b; i++ {
			code := ts.codes[(n+i)%len(ts.codes)]
			kids = append(kids, rt.Clone("sj", kernel.PThreadFlags, func(*kernel.Task) int { return code }))
		}
		r.tr.end()
		var err error
		r.tr.begin("kernel.Join")
		for i, c := range kids {
			if got, want := rt.Join(c), ts.codes[(n+i)%len(ts.codes)]; got != want && err == nil {
				err = fmt.Errorf("spawn-join: child %d exited %d, want %d", n+i, got, want)
			}
		}
		r.tr.end()
		r.group(b, time.Since(w0), err)
		n += b
		*done += b
	}
	if n := rt.Kernel().FutexTableSize(); n != 0 {
		return fmt.Errorf("spawn-join: futex table holds %d entries at quiescence", n)
	}
	return nil
}

// census is what a fan-in measured: host time for the whole lifecycle
// of its waiters, and retained heap+stack (and stack alone) per parked
// waiter after a forced GC.
type census struct {
	wall        time.Duration
	live, stack float64
}

// footprint forces a collection and returns the retained heap and the
// goroutine-stack bytes. The second collection frees what the first
// only moved to the sync.Pool victim caches.
func footprint() (heap, stack uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.StackInuse
}

// fanIn parks n waiters on one futex word, takes the census while all
// sleep, wakes them with one FutexWake(n) and joins them. FutexWake must
// report exactly n and the futex table must drain to empty.
func fanIn(k *kernel.Kernel, rt *kernel.Task, n int, tr *tracer) (census, error) {
	var c census
	space := rt.Space()
	addr, err := space.Mmap(8, mem.ProtRead|mem.ProtWrite, "fanin-word", true, nil)
	if err != nil {
		return c, err
	}
	h0, s0 := footprint()
	t0 := time.Now()
	waiters := make([]*kernel.Task, n)
	tr.begin("kernel.Clone")
	for i := range waiters {
		waiters[i] = rt.Clone("fw", kernel.PThreadFlags, func(t *kernel.Task) int {
			if t.FutexWait(addr, 0) != nil {
				return 1
			}
			return 0
		})
	}
	tr.end()
	tr.begin("kernel.Nanosleep")
	for k.FutexWaiters(space.ID, addr) < n {
		rt.Nanosleep(10 * sim.Microsecond)
	}
	tr.end()
	parked := time.Since(t0)
	h1, s1 := footprint()
	c.live = (float64(h1) + float64(s1) - float64(h0) - float64(s0)) / float64(n)
	c.stack = (float64(s1) - float64(s0)) / float64(n)
	t1 := time.Now()
	tr.begin("kernel.FutexWake")
	got := rt.FutexWake(addr, n)
	tr.end()
	if got != n {
		return c, fmt.Errorf("fan-in: FutexWake woke %d of %d", got, n)
	}
	tr.begin("kernel.Join")
	for i, w := range waiters {
		if rt.Join(w) != 0 && err == nil {
			err = fmt.Errorf("fan-in: waiter %d exited non-zero", i)
		}
	}
	tr.end()
	if err == nil && k.FutexTableSize() != 0 {
		err = fmt.Errorf("fan-in: futex table holds %d entries at quiescence", k.FutexTableSize())
	}
	// The census GCs are not part of the lifecycle cost.
	c.wall = parked + time.Since(t1)
	return c, err
}

// churn sleeps and wakes one waiter on each of ts.words distinct futex
// words, in batches, driving the futex table through create/drop.
func (ts *taskScale) churn(k *kernel.Kernel, rt *kernel.Task, r *recorder, done *int) error {
	base, err := rt.Space().Mmap(uint64(8*ts.words), mem.ProtRead|mem.ProtWrite, "churn-words", true, nil)
	if err != nil {
		return err
	}
	waiters := make([]*kernel.Task, 0, churnBatch)
	for n := 0; n < ts.words; {
		b := min(churnBatch, ts.words-n)
		w0 := time.Now()
		waiters = waiters[:0]
		r.tr.begin("kernel.Clone")
		for i := 0; i < b; i++ {
			addr := base + uint64(8*(n+i))
			waiters = append(waiters, rt.Clone("cw", kernel.PThreadFlags, func(t *kernel.Task) int {
				if t.FutexWait(addr, 0) != nil {
					return 1
				}
				return 0
			}))
		}
		r.tr.end()
		r.tr.begin("kernel.Nanosleep")
		for k.FutexTableSize() < b {
			rt.Nanosleep(10 * sim.Microsecond)
		}
		r.tr.end()
		var err error
		r.tr.begin("kernel.FutexWake")
		for i := 0; i < b; i++ {
			if got := rt.FutexWake(base+uint64(8*(n+i)), 1); got != 1 && err == nil {
				err = fmt.Errorf("churn: FutexWake on word %d woke %d of 1", n+i, got)
			}
		}
		r.tr.end()
		r.tr.begin("kernel.Join")
		for _, w := range waiters {
			if rt.Join(w) != 0 && err == nil {
				err = errors.New("churn: waiter exited non-zero")
			}
		}
		r.tr.end()
		if err == nil && k.FutexTableSize() != 0 {
			err = fmt.Errorf("churn: futex table holds %d entries after a drained batch", k.FutexTableSize())
		}
		r.group(b, time.Since(w0), err)
		n += b
		*done += b
	}
	return nil
}

// parkCensus measures live bytes per parked task on a fresh kernel, for
// workloads whose own passes park no large population: n tasks sleep on
// one futex word while the census is taken.
func parkCensus(n int) (live, stack float64, err error) {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	var c census
	var bodyErr error
	root := k.NewTask("census-root", k.NewAddressSpace(), func(rt *kernel.Task) int {
		c, bodyErr = fanIn(k, rt, n, nil)
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		return 0, 0, err
	}
	return c.live, c.stack, bodyErr
}
