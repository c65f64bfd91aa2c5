package uctx

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestKillFreesCoroutine: killing a parked, started context runs its
// body's defers and gives its coroutine back (to the pool, or stopped),
// so a thousand step-and-kill rounds leave no parked goroutine behind.
func TestKillFreesCoroutine(t *testing.T) {
	withTask(t, func(task *kernel.Task) {
		base := runtime.NumGoroutine()
		for i := 0; i < 1000; i++ {
			cleaned := false
			c := New("victim", func(c *Context) {
				defer func() { cleaned = true }()
				c.Yield(nil)
			})
			c.Step(task)
			c.Kill()
			if !cleaned || !c.Done() {
				t.Fatalf("round %d: cleaned=%v done=%v", i, cleaned, c.Done())
			}
			if c.co != nil {
				t.Fatalf("round %d: killed context still holds its coroutine", i)
			}
		}
		// One coroutine may have been created for the first round; every
		// later round reuses the one the previous kill freed.
		if grew := runtime.NumGoroutine() - base; grew > 1 {
			t.Errorf("goroutines grew by %d over 1000 step/kill rounds", grew)
		}
	})
}

// TestChargeMidStepResumesOnCarrier: a context that charges time
// suspends its carrier's proc from the context's own coroutine. Other
// tasks run meanwhile, and the body resumes on the same carrier, which
// alone is billed. The next step, by another carrier, bills that one.
func TestChargeMidStepResumesOnCarrier(t *testing.T) {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	var log []string
	note := func(s string) { log = append(log, s+"@"+e.Now().String()) }
	c := New("uc", func(c *Context) {
		for i := 0; i < 2; i++ {
			car := c.Carrier()
			note("uc:charge:" + car.Name())
			car.Charge(10 * sim.Microsecond)
			if c.Carrier() != car {
				t.Errorf("carrier changed across Charge: %s -> %s", car.Name(), c.Carrier().Name())
			}
			note("uc:charged:" + car.Name())
			c.Yield(nil)
		}
	})
	var a, b, other *kernel.Task
	a = k.NewTask("A", k.NewAddressSpace(), func(task *kernel.Task) int {
		c.Step(task)
		note("A:stepped")
		return 0
	})
	b = k.NewTask("B", k.NewAddressSpace(), func(task *kernel.Task) int {
		task.Nanosleep(20 * sim.Microsecond)
		c.Step(task)
		note("B:stepped")
		return 0
	})
	other = k.NewTask("other", k.NewAddressSpace(), func(task *kernel.Task) int {
		task.Charge(5 * sim.Microsecond)
		note("other:ran")
		return 0
	})
	a.SetAffinity(0)
	b.SetAffinity(1)
	other.SetAffinity(2)
	k.Start(a, 0)
	k.Start(b, 0)
	k.Start(other, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"uc:charge:A@0ps",
		"other:ran@5us", // runs while A is suspended inside the UC's Charge
		"uc:charged:A@10us",
		"A:stepped@10us",
		"uc:charge:B@20.24us",
		"uc:charged:B@30.24us",
		"B:stepped@30.24us",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("log:\n got %v\nwant %v", log, want)
	}
	if a.CPUTime() < 10*sim.Microsecond || b.CPUTime() < 10*sim.Microsecond {
		t.Errorf("cpu time A=%v B=%v, want each carrier billed its step's 10us", a.CPUTime(), b.CPUTime())
	}
	if c.Steps() != 2 {
		t.Errorf("steps = %d, want 2", c.Steps())
	}
}
