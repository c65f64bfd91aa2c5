//go:build !race

// The race detector widens frames and the stack guard; the pin below
// only holds without it.

package kernel

import (
	"os"
	"os/exec"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestFutexWaiterFitsStartingStack: a task that clones, waits on a futex
// word and parks must fit the runtime's 2 KiB starting goroutine stack.
// A frame that pushes the path over it makes every such task pay a stack
// copy and double its stack, which at a 200k-task fan-in is the bulk of
// the per-task footprint.
//
// The runtime's adaptive starting stack size follows the stacks the
// collector scans, so the test re-runs itself with it off: every
// goroutine then starts at 2 KiB, and a path that overflows that stack
// shows up as a grown stack.
func TestFutexWaiterFitsStartingStack(t *testing.T) {
	if os.Getenv("KERNEL_STACK_PIN") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFutexWaiterFitsStartingStack$", "-test.count=1")
		cmd.Env = append(os.Environ(), "KERNEL_STACK_PIN=1", "GODEBUG=adaptivestackstart=0")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return
	}
	const n = 2000
	e := sim.New()
	k := New(e, arch.Wallaby())
	var perTask float64
	root := k.NewTask("root", k.NewAddressSpace(), func(rt *Task) int {
		addr, err := rt.Space().Mmap(8, mem.ProtRead|mem.ProtWrite, "word", true, nil)
		if err != nil {
			t.Error(err)
			return 1
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		ws := make([]*Task, n)
		for i := range ws {
			ws[i] = rt.Clone("fw", PThreadFlags, func(w *Task) int {
				if w.FutexWait(addr, 0) != nil {
					return 1
				}
				return 0
			})
		}
		for k.FutexWaiters(rt.Space().ID, addr) < n {
			rt.Nanosleep(10 * sim.Microsecond)
		}
		runtime.ReadMemStats(&m1)
		perTask = float64(m1.StackInuse-m0.StackInuse) / n
		rt.FutexWake(addr, n)
		for _, w := range ws {
			rt.Join(w)
		}
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if perTask > 2048*1.05 {
		t.Errorf("a parked futex waiter holds %.0f B of stack, want the 2048 B starting stack", perTask)
	}
}
