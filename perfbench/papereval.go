package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/bench"
)

// paperEvalDigest is the SHA-256 of the bytes `ulpbench -exp all`
// prints: Tables III–V, Figs. 7–8, the ablations, the Fig. 6 scenario,
// huge pages and MPI oversubscription on both machines. A pass whose
// concatenated output differs has changed a simulated result.
const paperEvalDigest = "daf0e22683ca7b6424fe9c6b425d00c989151cbf2957bf983d99b00e5fcaf2bf"

// experiment renders one block of the paper evaluation exactly as
// ulpbench -exp all does.
type experiment struct {
	name string
	run  func(w io.Writer) error
}

// paperExperiments lists the blocks in ulpbench's output order.
func paperExperiments() []experiment {
	perMachine := func(fn func(w io.Writer, m *arch.Machine) error) func(io.Writer) error {
		return func(w io.Writer) error {
			for _, m := range arch.Machines() {
				if err := fn(w, m); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			return nil
		}
	}
	return []experiment{
		{"bench.Table3", func(w io.Writer) error {
			r, err := bench.MachineResults(bench.Table3)
			if err != nil {
				return err
			}
			bench.PrintTable3(w, r)
			fmt.Fprintln(w)
			return nil
		}},
		{"bench.Table4", func(w io.Writer) error {
			r, err := bench.MachineResults(bench.Table4)
			if err != nil {
				return err
			}
			bench.PrintTable4(w, r)
			fmt.Fprintln(w)
			return nil
		}},
		{"bench.Table5", func(w io.Writer) error {
			r, err := bench.MachineResults(bench.Table5)
			if err != nil {
				return err
			}
			bench.PrintTable5(w, r)
			fmt.Fprintln(w)
			return nil
		}},
		{"bench.Fig7", func(w io.Writer) error {
			r, err := bench.MachineResults(bench.Fig7)
			if err != nil {
				return err
			}
			for _, name := range bench.MachineOrder {
				bench.PrintFig7(w, r[name])
				fmt.Fprintln(w)
			}
			return nil
		}},
		{"bench.Fig8", func(w io.Writer) error {
			r, err := bench.MachineResults(bench.Fig8)
			if err != nil {
				return err
			}
			for _, name := range bench.MachineOrder {
				bench.PrintFig8(w, r[name])
				fmt.Fprintln(w)
			}
			return nil
		}},
		{"bench.AblateIdlePolicy", perMachine(func(w io.Writer, m *arch.Machine) error {
			r, err := bench.AblateIdlePolicy(m)
			if err == nil {
				bench.PrintIdleAblation(w, r)
			}
			return err
		})},
		{"bench.AblateTLS", func(w io.Writer) error {
			r, err := bench.MachineResults(bench.AblateTLS)
			if err != nil {
				return err
			}
			bench.PrintTLSAblation(w, r)
			fmt.Fprintln(w)
			return nil
		}},
		{"bench.Fig6Scenario", perMachine(func(w io.Writer, m *arch.Machine) error {
			pts, err := bench.Fig6Scenario(m, []int{1, 2, 4}, []int{0, 1, 3})
			if err == nil {
				bench.PrintFig6(w, pts)
			}
			return err
		})},
		{"bench.HugePages", perMachine(func(w io.Writer, m *arch.Machine) error {
			r, err := bench.HugePages(m)
			if err == nil {
				bench.PrintHugePages(w, r)
			}
			return err
		})},
		{"bench.MPIOversubscription", perMachine(func(w io.Writer, m *arch.Machine) error {
			pts, err := bench.MPIOversubscription(m, []int{2, 4, 8, 16})
			if err == nil {
				bench.PrintMPI(w, pts)
			}
			return err
		})},
	}
}

// paperEval is the paper's own evaluation, run as users run it. One
// pass = one op = every experiment block, executed in a seeded order
// and reassembled in print order for the digest check.
type paperEval struct {
	exps  []experiment
	order []int
	want  string
	bufs  []bytes.Buffer
	width int
}

func newPaperEval(seed uint64, sc scale) workload {
	exps := paperExperiments()
	rng := rand.New(rand.NewPCG(seed, 0x9a9e7))
	// The sweep fans Fig. 7/8 grids and the machine loops out over at
	// most the host's cores; the output is identical at any width.
	width := min(2, runtime.NumCPU())
	bench.Parallelism = width
	bench.Runs = 3 // ulpbench's default
	return &paperEval{
		exps:  exps,
		order: rng.Perm(len(exps)),
		want:  paperEvalDigest,
		bufs:  make([]bytes.Buffer, len(exps)),
		width: width,
	}
}

func (p *paperEval) sizes() map[string]int {
	return map[string]int{"experiments": len(p.exps), "machines": len(arch.Machines()), "sweep_width": p.width, "repeats": bench.Runs}
}

func (p *paperEval) censusTasks() int { return censusTasks }

func (p *paperEval) pass(r *recorder) {
	t0 := time.Now()
	var err error
	for _, i := range p.order {
		p.bufs[i].Reset()
		r.tr.begin(p.exps[i].name)
		e := p.exps[i].run(&p.bufs[i])
		r.tr.end()
		if e != nil && err == nil {
			err = fmt.Errorf("%s: %w", p.exps[i].name, e)
		}
	}
	h := sha256.New()
	for i := range p.bufs {
		h.Write(p.bufs[i].Bytes())
	}
	if got := hex.EncodeToString(h.Sum(nil)); err == nil && got != p.want {
		err = fmt.Errorf("paper-eval output digest %s, want %s", got, p.want)
	}
	r.group(1, time.Since(t0), err)
}
