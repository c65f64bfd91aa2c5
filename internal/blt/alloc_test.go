package blt

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/kernel"
)

// TestCoupleDecoupleUntracedZeroAllocs pins the trace gating: with no
// trace:log probe attached, a couple/decouple round trip boxes no trace
// arguments and allocates nothing at all.
func TestCoupleDecoupleUntracedZeroAllocs(t *testing.T) {
	runPool(t, arch.Wallaby(), testConfig(BusyWait), func(root *kernel.Task, p *Pool) {
		var allocs float64
		p.Spawn(func(b *BLT) int {
			b.Decouple()
			b.Couple() // warm the ready queues and handshake paths
			b.Decouple()
			allocs = testing.AllocsPerRun(100, func() {
				if err := b.Couple(); err != nil {
					t.Error(err)
				}
				b.Decouple()
			})
			b.Couple()
			return 0
		}, SpawnOpts{Name: "rt", Scheduler: 0})
		reap(t, root, 1)
		if allocs != 0 {
			t.Errorf("untraced couple/decouple round trip allocates %v times, want 0", allocs)
		}
	})
}
