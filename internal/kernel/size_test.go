package kernel

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/sim"
)

// A parked task's footprint is its Task, its proc and the proc's
// coroutine; scale runs park hundreds of thousands at once. These pins
// make a field that grows the structs fail here instead of as drift in
// the host-cost benchmark.
func TestTaskSize(t *testing.T) {
	if got := unsafe.Sizeof(Task{}); got > 256 {
		t.Errorf("sizeof(Task) = %d, want <= 256", got)
	}
	// doneQ is embedded in every task; futex-table bookkeeping lives in
	// futexQueue, not in WaitQueue.
	if got := unsafe.Sizeof(WaitQueue{}); got > 32 {
		t.Errorf("sizeof(WaitQueue) = %d, want <= 32", got)
	}
}

// TestCloneJoinAllocs pins the allocations of one Clone+Join once the
// coroutine pool is warm: the Task and its proc, nothing more. (With a
// goroutine and channel per proc, a formatted proc name and a closure
// per spawn, it took about 8.)
func TestCloneJoinAllocs(t *testing.T) {
	const wave, rounds = 64, 20
	e := sim.New()
	k := New(e, arch.Wallaby())
	var m0, m1 runtime.MemStats
	root := k.NewTask("root", k.NewAddressSpace(), func(rt *Task) int {
		kids := make([]*Task, 0, wave)
		round := func() {
			kids = kids[:0]
			for i := 0; i < wave; i++ {
				kids = append(kids, rt.Clone("cj", PThreadFlags, func(*Task) int { return 0 }))
			}
			for _, c := range kids {
				rt.Join(c)
			}
		}
		round() // warm the coroutine pool and the kernel's maps
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&m1)
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := float64(m1.Mallocs-m0.Mallocs) / (wave * rounds); got > 2.05 {
		t.Errorf("Clone+Join allocates %.2f per task, want <= 2 (Task and Proc)", got)
	}
}
