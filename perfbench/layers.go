package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/aio"
	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/probe"
	"repro/internal/sim"
	usync "repro/internal/sync"
	"repro/internal/uctx"
)

// layerReps is how many times each micro-loop repeats; the report gives
// the median and quartiles across repetitions.
const layerReps = 5

// layerLoop is one fixed-length loop over a layer's public functions.
// One repetition yields one value per name.
type layerLoop struct {
	names, units []string
	run          func() ([]float64, error)
}

func ns(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func one(name, unit string, run func() (float64, error)) layerLoop {
	return layerLoop{names: []string{name}, units: []string{unit}, run: func() ([]float64, error) {
		v, err := run()
		return []float64{v}, err
	}}
}

// inTask runs body as the root task of a fresh Wallaby kernel.
func inTask(body func(k *kernel.Kernel, rt *kernel.Task) error) error {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	var bodyErr error
	root := k.NewTask("layer-root", k.NewAddressSpace(), func(rt *kernel.Task) int {
		bodyErr = body(k, rt)
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		return err
	}
	return bodyErr
}

// inULP boots a 2+2-core ULP-PiP runtime and runs the given images on
// scheduler 0.
func inULP(mains ...loader.MainFunc) error {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	var runErr error
	_, err := core.Boot(k, core.Config{ProgCores: []int{0, 1}, SyscallCores: []int{2, 3}, Idle: blt.BusyWait},
		func(rt *core.Runtime) int {
			for i, m := range mains {
				img := &loader.Image{Name: fmt.Sprintf("layer%d", i), PIE: true, TextSize: 4096,
					Symbols: []loader.Symbol{{Name: "errno", Size: 8, TLS: true}}, Main: m}
				if _, err := rt.Spawn(img, core.SpawnOpts{Scheduler: 0}); err != nil {
					runErr = err
				}
			}
			if _, err := rt.WaitAll(); err != nil && runErr == nil {
				runErr = err
			}
			rt.Shutdown()
			return 0
		})
	if err != nil {
		return err
	}
	if err := e.Run(); err != nil {
		return err
	}
	return runErr
}

func nop() {}

// layerLoops lists the per-layer micro-loops. Each calls only the
// public function its metric names, at a fixed length.
func layerLoops() []layerLoop {
	loops := []layerLoop{
		one("sim.handoff_ns", "ns", func() (float64, error) {
			const n = 50_000
			e := sim.New()
			var a, b *sim.Proc
			var d time.Duration
			b = e.Spawn("pong", func(p *sim.Proc) {
				for {
					p.Park()
					a.Unpark(0)
				}
			})
			a = e.Spawn("ping", func(p *sim.Proc) {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					b.Unpark(0)
					p.Park()
				}
				d = time.Since(t0)
				e.Stop()
			})
			err := e.Run()
			e.Shutdown()
			return ns(d, n), err
		}),
		one("sim.timer_ns", "ns", func() (float64, error) {
			const n = 500_000
			e := sim.New()
			var d time.Duration
			e.Spawn("timer", func(p *sim.Proc) {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					p.Advance(sim.Nanosecond)
					e.After(sim.Nanosecond, nop)
				}
				d = time.Since(t0)
			})
			err := e.Run()
			return ns(d, n), err
		}),
		one("sim.spawn_ns", "ns", func() (float64, error) {
			const n = 20_000
			e := sim.New()
			t0 := time.Now()
			for i := 0; i < n; i++ {
				e.Spawn("s", func(*sim.Proc) {})
			}
			err := e.Run()
			return ns(time.Since(t0), n), err
		}),
		one("kernel.clone_join_ns", "ns", func() (float64, error) {
			const n = 20_480
			var d time.Duration
			err := inTask(func(k *kernel.Kernel, rt *kernel.Task) error {
				kids := make([]*kernel.Task, 0, spawnWave)
				t0 := time.Now()
				for done := 0; done < n; done += spawnWave {
					kids = kids[:0]
					for i := 0; i < spawnWave; i++ {
						kids = append(kids, rt.Clone("cj", kernel.PThreadFlags, func(*kernel.Task) int { return 0 }))
					}
					for _, c := range kids {
						if rt.Join(c) != 0 {
							return errors.New("clone-join: child exited non-zero")
						}
					}
				}
				d = time.Since(t0)
				return nil
			})
			return ns(d, n), err
		}),
		one("kernel.wakeall_ns_per_waiter", "ns", func() (float64, error) {
			const n = 4096
			var d time.Duration
			err := inTask(func(k *kernel.Kernel, rt *kernel.Task) error {
				addr, err := rt.Mmap(8, true)
				if err != nil {
					return err
				}
				ws := make([]*kernel.Task, n)
				for i := range ws {
					ws[i] = rt.Clone("w", kernel.PThreadFlags, func(t *kernel.Task) int {
						if t.FutexWait(addr, 0) != nil {
							return 1
						}
						return 0
					})
				}
				for k.FutexWaiters(rt.Space().ID, addr) < n {
					rt.Nanosleep(10 * sim.Microsecond)
				}
				t0 := time.Now()
				if got := rt.FutexWake(addr, n); got != n {
					return fmt.Errorf("wakeall: woke %d of %d", got, n)
				}
				for _, w := range ws {
					if rt.Join(w) != 0 {
						return errors.New("wakeall: waiter exited non-zero")
					}
				}
				d = time.Since(t0)
				return nil
			})
			return ns(d, n), err
		}),
		one("kernel.futex_pingpong_ns", "ns", func() (float64, error) {
			const n = 20_000
			var d time.Duration
			err := inTask(func(k *kernel.Kernel, rt *kernel.Task) error {
				semA, err := rt.NewSemaphore(0)
				if err != nil {
					return err
				}
				semB, err := rt.NewSemaphore(0)
				if err != nil {
					return err
				}
				a := rt.ClonePinned("a", kernel.PThreadFlags, 0, func(t *kernel.Task) int {
					t0 := time.Now()
					for i := 0; i < n; i++ {
						semA.Post(t)
						semB.Wait(t)
					}
					d = time.Since(t0)
					return 0
				})
				b := rt.ClonePinned("b", kernel.PThreadFlags, 1, func(t *kernel.Task) int {
					for i := 0; i < n; i++ {
						semA.Wait(t)
						semB.Post(t)
					}
					return 0
				})
				if rt.Join(a) != 0 || rt.Join(b) != 0 {
					return errors.New("pingpong: task exited non-zero")
				}
				return nil
			})
			return ns(d, n), err
		}),
		one("kernel.sched_yield_ns", "ns", func() (float64, error) {
			const n = 20_000
			var d time.Duration
			err := inTask(func(k *kernel.Kernel, rt *kernel.Task) error {
				done := false
				a := rt.ClonePinned("ya", kernel.PThreadFlags, 0, func(t *kernel.Task) int {
					t0 := time.Now()
					for i := 0; i < n; i++ {
						t.SchedYield()
					}
					d = time.Since(t0)
					done = true
					return 0
				})
				b := rt.ClonePinned("yb", kernel.PThreadFlags, 0, func(t *kernel.Task) int {
					for !done {
						t.SchedYield()
					}
					return 0
				})
				rt.Join(a)
				rt.Join(b)
				return nil
			})
			return ns(d, n), err
		}),
		one("kernel.getpid_ns", "ns", func() (float64, error) {
			const n = 1_000_000
			var d time.Duration
			err := inTask(func(k *kernel.Kernel, rt *kernel.Task) error {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					rt.Getpid()
				}
				d = time.Since(t0)
				return nil
			})
			return ns(d, n), err
		}),
		one("uctx.swap_ns", "ns", func() (float64, error) {
			const n = 50_000
			var d time.Duration
			err := inTask(func(k *kernel.Kernel, rt *kernel.Task) error {
				c := uctx.New("uc", func(c *uctx.Context) {
					for {
						c.Yield(nil)
					}
				})
				t0 := time.Now()
				for i := 0; i < n; i++ {
					c.Step(rt)
				}
				d = time.Since(t0)
				c.Kill()
				return nil
			})
			return ns(d, n), err
		}),
		one("blt.couple_decouple_ns", "ns", func() (float64, error) {
			const n = 5_000
			var d time.Duration
			err := inULP(func(envI interface{}) int {
				b := envI.(*core.Env).U.BLT()
				b.Decouple()
				t0 := time.Now()
				for i := 0; i < n; i++ {
					if b.Couple() != nil {
						return 1
					}
					b.Decouple()
				}
				d = time.Since(t0)
				if b.Couple() != nil {
					return 1
				}
				return 0
			})
			return ns(d, n), err
		}),
		one("core.ulp_yield_ns", "ns", func() (float64, error) {
			const n = 10_000
			var d time.Duration
			ready, done := 0, false
			yielder := func(measuring bool) loader.MainFunc {
				return func(envI interface{}) int {
					env := envI.(*core.Env)
					env.Decouple()
					ready++
					for ready < 2 {
						env.Yield()
					}
					if measuring {
						t0 := time.Now()
						for i := 0; i < n; i++ {
							env.Yield()
						}
						d = time.Since(t0)
						done = true
					} else {
						for !done {
							env.Yield()
						}
					}
					if env.Couple() != nil {
						return 1
					}
					return 0
				}
			}
			err := inULP(yielder(true), yielder(false))
			return ns(d, 2*n), err
		}),
		{
			// Each file is built by appending chunks, the way a streaming
			// writer grows it, so the allocation ratio exposes the file
			// growth policy.
			names: []string{"fs.write_ns_per_kib", "fs.alloc_bytes_per_written_byte"},
			units: []string{"ns", "B/B"},
			run: func() ([]float64, error) {
				const files, chunks, size = 100, 16, 4096
				fsys := fs.New()
				buf := make([]byte, size)
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				t0 := time.Now()
				for i := 0; i < files; i++ {
					f, err := fsys.Open("/perfbench", fs.OCreate|fs.OWrOnly|fs.OTrunc)
					if err != nil {
						return nil, err
					}
					for c := 0; c < chunks; c++ {
						if _, err := f.Write(buf); err != nil {
							return nil, err
						}
					}
					if err := f.Close(); err != nil {
						return nil, err
					}
				}
				d := time.Since(t0)
				runtime.ReadMemStats(&ms1)
				const written = files * chunks * size
				return []float64{ns(d, written/1024), float64(ms1.TotalAlloc-ms0.TotalAlloc) / written}, nil
			},
		},
		one("aio.write_ns", "ns", func() (float64, error) {
			const n = 2_000
			var d time.Duration
			err := inTask(func(k *kernel.Kernel, rt *kernel.Task) error {
				ctx, err := aio.New(rt)
				if err != nil {
					return err
				}
				defer ctx.Close(rt)
				fd, err := rt.Open("/perfbench-aio", fs.OCreate|fs.OWrOnly|fs.OTrunc)
				if err != nil {
					return err
				}
				buf := make([]byte, 4096)
				t0 := time.Now()
				for i := 0; i < n; i++ {
					// Rewind so the file stays one buffer long and the
					// figure is per write, not per byte already written.
					if err := rt.Seek(fd, 0); err != nil {
						return err
					}
					r, err := ctx.WriteAsync(rt, fd, buf)
					if err != nil {
						return err
					}
					if _, err := r.Suspend(rt); err != nil {
						return err
					}
				}
				d = time.Since(t0)
				return rt.Close(fd)
			})
			return ns(d, n), err
		}),
		one("mem.touch_ns_per_page", "ns", func() (float64, error) {
			const pages = 8192
			as := mem.NewAddressSpace(mem.NewPhysMemory(0), mem.Costs{})
			addr, err := as.Mmap(pages*mem.PageSize, mem.ProtRead|mem.ProtWrite, "touch", false, nil)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			for i := uint64(0); i < pages; i++ {
				if err := as.WriteU64(addr+i*mem.PageSize, i, nil); err != nil {
					return 0, err
				}
			}
			d := time.Since(t0)
			return ns(d, pages), as.Munmap(addr, pages*mem.PageSize)
		}),
		one("mpi.sendrecv_ns", "ns", func() (float64, error) {
			const n = 8_000
			var d time.Duration
			e := sim.New()
			k := kernel.New(e, arch.Wallaby())
			_, statuses, err := mpi.Run(k, mpi.Config{ProgCores: []int{0, 1}, SyscallCores: []int{2, 3}, Idle: blt.BusyWait}, 2,
				func(r *mpi.Rank) int {
					peer := 1 - r.Rank()
					msg := []byte{byte(r.Rank())}
					t0 := time.Now()
					for i := 0; i < n; i++ {
						got, err := r.Sendrecv(peer, i, msg, peer, i)
						if err != nil || len(got) != 1 || got[0] != byte(peer) {
							return 1
						}
					}
					if r.Rank() == 0 {
						d = time.Since(t0)
					}
					return 0
				})
			if err == nil {
				for i, s := range statuses {
					if s != 0 {
						err = fmt.Errorf("sendrecv: rank %d exited %d", i, s)
					}
				}
			}
			return ns(d, n), err
		}),
		one("loader.dlmopen_ns", "ns", func() (float64, error) {
			const n = 2_000
			ld := loader.New(mem.NewAddressSpace(mem.NewPhysMemory(0), mem.Costs{}), loader.Costs{})
			img := &loader.Image{Name: "dl", PIE: true, TextSize: 3 * mem.PageSize, Main: func(interface{}) int { return 0 },
				Symbols: []loader.Symbol{{Name: "state", Size: 64}, {Name: "buf", Size: 256}, {Name: "errno", Size: 8, TLS: true}}}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if _, err := ld.Dlmopen(img, nil); err != nil {
					return 0, err
				}
			}
			return ns(time.Since(t0), n), nil
		}),
		one("metrics.observe_ns", "ns", func() (float64, error) {
			const n = 8_000_000
			h := metrics.NewRegistry().Histogram("perfbench")
			t0 := time.Now()
			for i := 0; i < n; i++ {
				h.Observe(int64(i*7919) % 1_000_003)
			}
			d := time.Since(t0)
			if h.Count() != n {
				return 0, fmt.Errorf("observe: histogram counted %d of %d", h.Count(), n)
			}
			return ns(d, n), nil
		}),
		one("probe.fire_unattached_ns", "ns", func() (float64, error) {
			const n = 20_000_000
			r := probe.NewRegistry()
			fired := 0
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if r.Attached(probe.PSyscallEnter) {
					r.Fire(r.Begin(probe.PSyscallEnter, sim.Time(i)))
					fired++
				}
			}
			d := time.Since(t0)
			if fired != 0 {
				return 0, errors.New("probe: unattached point fired")
			}
			return ns(d, n), nil
		}),
		one("probe.fire_attached_ns", "ns", func() (float64, error) {
			const n = 1_000_000
			r := probe.NewRegistry()
			seen := 0
			r.Attach("perfbench-count", func(*probe.Ctx) probe.Verdict { seen++; return probe.Verdict{} }, probe.PSyscallEnter)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if r.Attached(probe.PSyscallEnter) {
					c := r.Begin(probe.PSyscallEnter, sim.Time(i))
					c.Site = "getpid"
					r.Fire(c)
				}
			}
			d := time.Since(t0)
			if seen != n {
				return 0, fmt.Errorf("probe: program saw %d of %d fires", seen, n)
			}
			return ns(d, n), nil
		}),
		{
			names: []string{"supervise.overhead_ratio"},
			units: []string{"ratio"},
			run: func() ([]float64, error) {
				var bare, supervised time.Duration
				for seed := uint64(11); seed < 15; seed++ {
					for _, sup := range []bool{false, true} {
						t0 := time.Now()
						if _, err := chaos.Run(chaos.Config{Machine: arch.Wallaby(), Seed: seed, Supervise: sup}); err != nil {
							return nil, err
						}
						if sup {
							supervised += time.Since(t0)
						} else {
							bare += time.Since(t0)
						}
					}
				}
				return []float64{float64(supervised) / float64(bare)}, nil
			},
		},
		{
			names: []string{"explore.runs_per_s", "explore.decisions_per_run"},
			units: []string{"1/s", "count"},
			run: func() ([]float64, error) {
				scn := explore.LockScenario(arch.Wallaby, "ticket")
				t0 := time.Now()
				res := explore.Explore(scn, explore.Config{Policy: explore.RandomWalk, Runs: 128, Seed: 3})
				d := time.Since(t0)
				if res.Failure != nil {
					return nil, fmt.Errorf("explore: %s", res.Failure.Err)
				}
				return []float64{float64(res.Runs) / d.Seconds(), float64(res.Decisions) / float64(res.Runs)}, nil
			},
		},
	}
	for _, algo := range usync.Names() {
		loops = append(loops, one("sync."+algo+".acquire_ns", "ns", func() (float64, error) {
			return acquireNS(algo)
		}))
	}
	return loops
}

// acquireNS is host time per acquisition of one lock algorithm: four
// threads on two cores, each taking the lock 2500 times around a
// racy counter whose final value must be exact.
func acquireNS(algo string) (float64, error) {
	const threads, ops = 4, 2_500
	var d time.Duration
	err := inTask(func(k *kernel.Kernel, rt *kernel.Task) error {
		l, err := usync.New(rt, algo, usync.Config{})
		if err != nil {
			return err
		}
		ctr, err := rt.Mmap(8, true)
		if err != nil {
			return err
		}
		space := rt.Space()
		t0 := time.Now()
		kids := make([]*kernel.Task, threads)
		for i := range kids {
			kids[i] = rt.ClonePinned("acq", kernel.PThreadFlags, i%2, func(t *kernel.Task) int {
				for op := 0; op < ops; op++ {
					l.Lock(t)
					v, _ := space.ReadU64(ctr, nil)
					t.Compute(300 * sim.Nanosecond)
					space.WriteU64(ctr, v+1, nil)
					l.Unlock(t)
					t.Compute(100 * sim.Nanosecond)
				}
				return 0
			})
		}
		for _, c := range kids {
			if rt.Join(c) != 0 {
				return errors.New("acquire: thread exited non-zero")
			}
		}
		d = time.Since(t0)
		if got, _ := space.ReadU64(ctr, nil); got != threads*ops {
			return fmt.Errorf("acquire %s: counter %d, want %d", algo, got, threads*ops)
		}
		return nil
	})
	return ns(d, threads*ops), err
}

// layerStat is one per-layer metric with its spread across repetitions.
type layerStat struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// runLayers runs every micro-loop layerReps times.
func runLayers() ([]layerStat, error) {
	var out []layerStat
	for _, l := range layerLoops() {
		vals := make([][]float64, len(l.names))
		t0 := time.Now()
		for rep := 0; rep < layerReps; rep++ {
			v, err := l.run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", l.names[0], err)
			}
			for i := range l.names {
				vals[i] = append(vals[i], v[i])
			}
		}
		fmt.Fprintf(os.Stderr, "layer %-34s %d reps in %v\n", l.names[0], layerReps, time.Since(t0).Round(time.Millisecond))
		for i, name := range l.names {
			out = append(out, layerStat{Name: name, Unit: l.units[i],
				Median: quantile(vals[i], 0.5), Q1: quantile(vals[i], 0.25), Q3: quantile(vals[i], 0.75)})
		}
	}
	return out, nil
}
