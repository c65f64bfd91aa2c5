package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// poolLen reports how many coroutines wait in the free list.
func poolLen() int {
	coroPool.mu.Lock()
	defer coroPool.mu.Unlock()
	return len(coroPool.free)
}

func TestProcAndCoroSize(t *testing.T) {
	if got := unsafe.Sizeof(Proc{}); got > 144 {
		t.Errorf("sizeof(Proc) = %d, want <= 144", got)
	}
	if got := unsafe.Sizeof(Coro{}); got > 48 {
		t.Errorf("sizeof(Coro) = %d, want <= 48", got)
	}
}

func TestCoroResumeSuspendReturn(t *testing.T) {
	var steps []string
	var c *Coro
	c = StartCoro(runFunc(func(*Proc) {
		steps = append(steps, "a1")
		c.Suspend()
		steps = append(steps, "a2")
	}), nil)
	if c.Resume() {
		t.Fatal("Resume reported a return at the first Suspend")
	}
	if !c.Resume() {
		t.Fatal("Resume did not report the return")
	}
	if got := strings.Join(steps, ","); got != "a1,a2" {
		t.Errorf("steps = %s, want a1,a2", got)
	}
}

// TestCoroSuspendFromNestedCoro pins the property user contexts rely on:
// code running on an inner coroutine (resumed by the outer one) may
// suspend the outer coroutine. Control returns to the outer coroutine's
// resumer, and the next outer Resume continues the inner code where it
// suspended.
func TestCoroSuspendFromNestedCoro(t *testing.T) {
	var log []string
	var outer, inner *Coro
	inner = StartCoro(runFunc(func(*Proc) {
		log = append(log, "inner:start")
		outer.Suspend() // suspend the carrier from the inner coroutine
		log = append(log, "inner:resumed")
		inner.Suspend()
		log = append(log, "inner:end")
	}), nil)
	outer = StartCoro(runFunc(func(*Proc) {
		log = append(log, "outer:start")
		if inner.Resume() {
			t.Error("inner returned at its own Suspend")
		}
		log = append(log, "outer:inner-suspended")
		outer.Suspend()
		if !inner.Resume() {
			t.Error("inner did not return")
		}
		log = append(log, "outer:end")
	}), nil)
	if outer.Resume() {
		t.Fatal("outer returned while inner held it suspended")
	}
	log = append(log, "hub:1")
	if outer.Resume() {
		t.Fatal("outer returned at its own Suspend")
	}
	log = append(log, "hub:2")
	if !outer.Resume() {
		t.Fatal("outer did not return")
	}
	want := "outer:start,inner:start,hub:1,inner:resumed,outer:inner-suspended,hub:2,inner:end,outer:end"
	if got := strings.Join(log, ","); got != want {
		t.Errorf("order:\n got %s\nwant %s", got, want)
	}
}

// churn runs n short procs on a fresh engine, all alive at once so the
// pool overflows, then kills a few parked ones and traps one panic.
func churn(n int) error {
	e := New()
	e.SetTrapPanics(true)
	for i := 0; i < n; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Advance(Duration(1 + p.ID()%7))
		})
	}
	for i := 0; i < 4; i++ {
		e.Spawn("parked", func(p *Proc) { p.Park() })
	}
	if err := e.Run(); err == nil {
		return fmt.Errorf("parked procs: want a deadlock error")
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		return fmt.Errorf("%d procs survived Shutdown", e.LiveProcs())
	}
	e.Spawn("boom", func(p *Proc) { panic("boom") })
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "boom") {
		return fmt.Errorf("trapped panic: err = %v", err)
	}
	return nil
}

// TestCoroPoolBoundNoLeak: 10k procs spawned and retired over several
// engines leave no goroutine behind beyond what the bounded pool keeps.
func TestCoroPoolBoundNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		if err := churn(2500); err != nil {
			t.Fatal(err)
		}
	}
	if n := poolLen(); n > coroPoolCap {
		t.Errorf("pool holds %d coroutines, cap %d", n, coroPoolCap)
	}
	if got := runtime.NumGoroutine() - base; got > coroPoolCap {
		t.Errorf("goroutines grew by %d after 10k procs, want <= pool cap %d", got, coroPoolCap)
	}
}

// TestCoroPoolSharedByParallelEngines runs engines on two goroutines at
// once, as bench sweeps do; under -race it checks the pool hands
// coroutines between goroutines safely. Both must reach the same result.
func TestCoroPoolSharedByParallelEngines(t *testing.T) {
	var wg sync.WaitGroup
	var ends [2]Time
	var errs [2]error
	for g := range ends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				e := New()
				var q WaitQ
				for i := 0; i < 64; i++ {
					e.Spawn("w", func(p *Proc) {
						if p.ID()%2 == 0 {
							p.Advance(Duration(p.ID()))
							q.Wait(p)
						} else {
							// Every waiter is queued before the first wake.
							p.Advance(Duration(100 + p.ID()))
							q.WakeOne(Nanosecond)
						}
					})
				}
				if err := e.Run(); err != nil {
					errs[g] = err
					return
				}
				ends[g] = e.Now()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if ends[0] != ends[1] {
		t.Errorf("parallel engines disagree: %v vs %v", ends[0], ends[1])
	}
}

// TestUntrappedPanicReachesRunCaller: without trapping, a proc's panic
// propagates out of Run on the caller's goroutine, named after the proc,
// where it can be recovered.
func TestUntrappedPanicReachesRunCaller(t *testing.T) {
	e := New()
	ran := false
	e.Spawn("boom", func(p *Proc) {
		defer func() { ran = true }()
		p.Advance(Microsecond)
		panic("kaboom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if want := "sim: proc boom#1 panicked: kaboom"; got != want {
		t.Errorf("recovered %v, want %q", got, want)
	}
	if !ran {
		t.Error("the proc's deferred calls did not run")
	}
	if e.LiveProcs() != 0 {
		t.Errorf("%d live procs after the panic, want 0", e.LiveProcs())
	}
}

func TestTrappedPanicStillPanicErr(t *testing.T) {
	e := New()
	e.SetTrapPanics(true)
	e.Spawn("boom", func(p *Proc) {
		p.Advance(Microsecond)
		panic("kaboom")
	})
	e.Spawn("later", func(p *Proc) { p.Advance(Millisecond) })
	err := e.Run()
	if err == nil || err != e.PanicErr() || err.Error() != "sim: proc boom#1 panicked: kaboom" {
		t.Fatalf("Run = %v, PanicErr = %v", err, e.PanicErr())
	}
	if e.Now() != Time(Microsecond) {
		t.Errorf("clock = %v, want the simulation stopped at the panic", e.Now())
	}
	e.Shutdown()
}

// TestEngineHotPathZeroAllocs runs BenchmarkEngineHotPath and requires
// the coroutine handoff to keep it allocation-free.
func TestEngineHotPathZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	r := testing.Benchmark(BenchmarkEngineHotPath)
	if a := r.AllocsPerOp(); a != 0 {
		t.Errorf("EngineHotPath allocates %d per op, want 0", a)
	}
}
