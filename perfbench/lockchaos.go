package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/blt"
	"repro/internal/chaos"
	"repro/internal/explore"
	"repro/internal/metrics"
	usync "repro/internal/sync"
)

// simRun is one short simulation on a fresh engine and kernel. It
// returns a digest of its simulated outputs and the error of any
// invariant the run itself checks (exact lock counters, liveness,
// futex conservation, explorer oracles).
type simRun struct {
	layer string // span name: the public entry point called
	key   string // identifies the inputs, for error messages
	run   func(r *recorder) (string, error)
}

// lockChaos is hundreds of short simulations: the contention sweep,
// seeded lock chaos for every algorithm, supervised chaos runs and
// explorer random walks over the lock scenarios. One op = one
// simulation. It is the only workload that fires the probe, fault,
// supervise, metrics, sync and explore layers, and it pays per-run
// kernel and loader set-up hundreds of times. Every op's digest must
// equal the digest the warm-up pass recorded for the same inputs.
type lockChaos struct {
	runs []simRun
	want []string // reference digest per run; "" until recorded
	n    map[string]int
}

func newLockChaos(seed uint64, sc scale) workload {
	rng := rand.New(rand.NewPCG(seed, 0x10c4))
	machines := []*arch.Machine{arch.Wallaby(), arch.Albireo()}
	threads, ratios, chaosSeeds, supRuns, walks := []int{2, 8, 16}, []int{1, 4}, 16, 32, 8
	if sc == toy {
		machines, threads, ratios, chaosSeeds, supRuns, walks = machines[:1], []int{2}, []int{1}, 1, 1, 1
	}
	lc := &lockChaos{n: map[string]int{}}
	add := func(layer, key string, run func(r *recorder) (string, error)) {
		lc.runs = append(lc.runs, simRun{layer: layer, key: key, run: run})
		lc.n[layer]++
	}
	for _, m := range machines {
		for _, lock := range usync.Names() {
			for _, t := range threads {
				for _, ratio := range ratios {
					cfg := bench.ContentionConfig{Label: "perfbench", Locks: []string{lock}, Threads: []int{t}, Ratios: []int{ratio}, Iters: 240}
					add("bench.Contention", fmt.Sprintf("%s/%s/t%d/r%d", m.Name, lock, t, ratio), func(*recorder) (string, error) {
						res, err := bench.Contention(m, cfg)
						return fmt.Sprint(res.Rows), err
					})
				}
			}
			for i := 0; i < chaosSeeds; i++ {
				cfg := chaos.LockConfig{Machine: m, Lock: lock, Seed: rng.Uint64()}
				add("chaos.RunLock", fmt.Sprintf("%s/%s/seed%d", m.Name, lock, cfg.Seed), func(r *recorder) (string, error) {
					d, err := chaos.RunLock(cfg)
					r.syscalls += d.Syscalls
					r.ctxSwitches += d.CtxSwitch
					r.injections += d.Injections
					return d.String(), err
				})
			}
		}
	}
	for i := 0; i < supRuns; i++ {
		idle := blt.BusyWait
		if i%2 == 1 {
			idle = blt.Blocking
		}
		cfg := chaos.Config{Machine: machines[i%len(machines)], Seed: rng.Uint64(), Idle: idle, Supervise: true}
		add("chaos.Run", fmt.Sprintf("%s/%v/seed%d", cfg.Machine.Name, idle, cfg.Seed), func(r *recorder) (string, error) {
			c := cfg
			c.Metrics = metrics.NewRegistry()
			d, err := chaos.Run(c)
			r.syscalls += d.Syscalls
			r.ctxSwitches += d.CtxSwitch
			r.injections += d.Injections
			return d.String(), err
		})
	}
	for _, lock := range usync.Names() {
		scn := explore.LockScenario(arch.Wallaby, lock)
		for i := 0; i < walks; i++ {
			cfg := explore.Config{Policy: explore.RandomWalk, Runs: 1, Seed: rng.Uint64()}
			add("explore.Explore", fmt.Sprintf("%s/seed%d", scn.Name, cfg.Seed), func(*recorder) (string, error) {
				res := explore.Explore(scn, cfg)
				if res.Failure != nil {
					return "", fmt.Errorf("oracle: %s", res.Failure.Err)
				}
				return fmt.Sprintf("runs=%d decisions=%d width=%d", res.Runs, res.Decisions, res.MaxWidth), nil
			})
		}
	}
	rng.Shuffle(len(lc.runs), func(i, j int) { lc.runs[i], lc.runs[j] = lc.runs[j], lc.runs[i] })
	lc.want = make([]string, len(lc.runs))
	// The contention sweep's determinism repeats are this workload's
	// own digest checks; one run per op.
	bench.Runs = 1
	return lc
}

func (lc *lockChaos) sizes() map[string]int {
	s := map[string]int{"sims_per_pass": len(lc.runs)}
	for layer, n := range lc.n {
		s[layer] = n
	}
	return s
}

func (lc *lockChaos) censusTasks() int { return censusTasks }

func (lc *lockChaos) pass(r *recorder) {
	for i, sr := range lc.runs {
		t0 := time.Now()
		r.tr.begin(sr.layer)
		got, err := sr.run(r)
		r.tr.end()
		d := time.Since(t0)
		if err == nil {
			switch {
			case lc.want[i] == "":
				lc.want[i] = got
			case got != lc.want[i]:
				err = fmt.Errorf("%s %s: digest %q differs from the first run's %q", sr.layer, sr.key, got, lc.want[i])
			}
		}
		r.group(1, d, err)
		if sr.layer == "chaos.RunLock" || sr.layer == "chaos.Run" {
			r.kernWall += d
		}
	}
}
