package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// contract reads the metric names BENCHMARK.json promises.
func contract(t *testing.T) (endToEnd, perLayer []string, workloadNames []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range c.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range c.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return endToEnd, perLayer, workloadNames
}

// TestWorkloadsToy measures every workload at toy sizes in two
// in-process rounds, aggregated as the parent aggregates its measuring
// processes: no op may fail and every end-to-end metric must be
// reported, finite and non-zero.
func TestWorkloadsToy(t *testing.T) {
	names, _, wls := contract(t)
	for _, wl := range wls {
		t.Run(wl, func(t *testing.T) {
			mk, ok := workloads[wl]
			if !ok {
				t.Fatalf("BENCHMARK.json names workload %q the benchmark does not have", wl)
			}
			var ps []procResult
			for i := 0; i < 2; i++ {
				p, err := measureProc(mk, 1, toy, time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				ps = append(ps, p)
			}
			res := aggregate(ps)
			if res.failed != 0 || res.warmFailed != 0 || res.attempted == 0 {
				t.Fatalf("failed_frac != 0: attempted=%d failed=%d warm-up failed=%d", res.attempted, res.failed, res.warmFailed)
			}
			for _, n := range names {
				m, ok := res.metrics[n]
				if !ok || m.Value == 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s = %+v (present %v)", n, m, ok)
				}
			}
		})
	}
}

// TestTracedToy checks the traced run reports every per-layer metric and
// that the CPU samples are bucketed completely: the shares sum to one.
func TestTracedToy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every layer micro-loop")
	}
	_, names, _ := contract(t)
	res, err := runTraced("lock-chaos", 1, toy, 2*time.Second, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.warmFailed != 0 {
		t.Fatalf("traced run failed %d ops (warm-up %d)", res.failed, res.warmFailed)
	}
	sum := 0.0
	for _, n := range names {
		m, ok := res.metrics[n]
		if !ok || math.IsNaN(m.Value) {
			t.Errorf("per-layer metric %s missing or NaN", n)
		}
		if strings.HasSuffix(n, ".cpu_share") {
			sum += m.Value
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cpu shares sum to %v, want 1", sum)
	}
}

// TestCorruptedExpectationCaught proves the correctness checks bite: a
// wrong expected digest must turn ops into failures.
func TestCorruptedExpectationCaught(t *testing.T) {
	pe := newPaperEval(1, toy).(*paperEval)
	rec := &recorder{}
	pe.pass(rec)
	if rec.failed != 0 {
		t.Fatalf("paper-eval failed with the true digest: %v", rec.firstErr)
	}
	pe.want = strings.Repeat("0", len(paperEvalDigest))
	rec = &recorder{}
	pe.pass(rec)
	if rec.failed != 1 {
		t.Errorf("paper-eval: corrupted digest not caught (failed=%d)", rec.failed)
	}

	lc := newLockChaos(1, toy).(*lockChaos)
	rec = &recorder{}
	lc.pass(rec) // records the reference digests
	lc.want[0] = "corrupt"
	rec = &recorder{}
	lc.pass(rec)
	if rec.failed != 1 {
		t.Errorf("lock-chaos: corrupted digest not caught (failed=%d)", rec.failed)
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/kernel.(*Task).Clone", "repro/internal/bench.Table3"}, "kernel"},
		{[]string{"repro/internal/sim.(*Proc).Park", "main.main"}, "sim"},
		{[]string{"crypto/sha256.block", "main.(*paperEval).pass"}, "harness"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
	}
	for _, c := range cases {
		if got := moduleOf(c.frames); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
