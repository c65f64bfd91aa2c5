// Command perfbench measures what it costs the host to run the
// simulator: wall-clock, CPU and heap allocations per unit of simulated
// work, on three workloads that stress different layers, plus one
// micro-loop per layer (the simulator's own Tables III–V).
//
// Virtual-time results are not metrics here: they are the correctness
// check. Every op compares its simulated outputs with expected values and
// counts as failed on any mismatch, so a host-speed change must leave
// every simulated statistic identical.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, and a
// span/profile report is written under .bench_build/. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// scale picks the workload sizes: the full benchmark or the toy sizes
// the self-test runs.
type scale int

const (
	full scale = iota
	toy
)

// measureProcs is how many processes an end-to-end run of each workload
// measures in, one after another, each setting up once and measuring an
// equal share of the run. A process's memory layout biases its speed by
// several percent for its whole life, so a single process would make
// that bias the run's result; setup_s is the median of the processes'
// set-ups. lock-chaos sets up in well under a second and its passes are
// short, so it pools more processes; the others pay seconds of set-up
// per process.
var measureProcs = map[string]int{
	"paper-eval": 3,
	"task-scale": 3,
	"lock-chaos": 8,
}

func main() {
	wl := flag.String("workload", "", "workload: paper-eval|task-scale|lock-chaos")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run")
	outDir := flag.String("out", ".bench_build", "directory for the traced run's span and profile report")
	procMS := flag.Int("measure-ms", 0, "internal: measure in this process for this many milliseconds and print its raw figures")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	mk, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want paper-eval, task-scale or lock-chaos)\n", *wl)
		os.Exit(2)
	}
	if *procMS > 0 {
		p, err := measureProc(mk, *seed, full, time.Duration(*procMS)*time.Millisecond)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(p)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	dur := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(*wl, *seed, dur)
	} else {
		res, err = runTraced(*wl, *seed, full, dur, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	man := newManifest(*wl, *seed, *seconds, *trace, res.sizes)
	if b, err := json.Marshal(map[string]any{"manifest": man}); err == nil {
		fmt.Println(string(b))
	}
	b, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runEndToEnd measures in measureProcs[wl] child processes of this
// binary, one at a time, and aggregates their figures.
func runEndToEnd(wl string, seed uint64, d time.Duration) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	n := measureProcs[wl]
	var ps []procResult
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.FormatUint(seed, 10),
			"--measure-ms", strconv.FormatInt((d/time.Duration(n)).Milliseconds(), 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("measuring process %d: %w", i, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var p procResult
		if err := json.Unmarshal(lines[len(lines)-1], &p); err != nil {
			return result{}, fmt.Errorf("measuring process %d: %w", i, err)
		}
		ps = append(ps, p)
	}
	return aggregate(ps), nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	attempted, failed int
	warmFailed        int
	metrics           map[string]metric
	sizes             map[string]int
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r result) line() map[string]any {
	return map[string]any{
		"correct":   r.failed == 0 && r.warmFailed == 0 && r.attempted > 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}
