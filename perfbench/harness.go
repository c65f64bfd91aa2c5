package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// workload is one pass-structured load. Every pass does the same work
// from the same generated inputs, so the measured window always covers
// whole passes and per-op figures do not depend on where a deadline
// fell.
type workload interface {
	// pass runs one pass, recording every op (and its correctness
	// verdict) in r.
	pass(r *recorder)
	// sizes reports the generated input sizes for the run manifest.
	sizes() map[string]int
	// censusTasks is how many tasks the live-bytes census parks when
	// the workload's own passes take none (see parkCensus).
	censusTasks() int
}

// maker builds a workload from the seed.
type maker func(seed uint64, sc scale) workload

var workloads = map[string]maker{
	"paper-eval": newPaperEval,
	"task-scale": newTaskScale,
	"lock-chaos": newLockChaos,
}

// recorder collects one window's ops. An op group is n ops timed
// together; it contributes one latency sample, the per-op mean of the
// group.
type recorder struct {
	ops, failed int
	latMS       []float64
	tr          *tracer // nil when untraced
	firstErr    error

	// Counts from simulated kernels the benchmark builds itself.
	syscalls, ctxSwitches, injections uint64
	kernWall                          time.Duration

	// Census samples (bytes per parked task) taken by the pass itself.
	liveBytes, stackBytes []float64
}

func (r *recorder) group(n int, d time.Duration, err error) {
	r.ops += n
	r.latMS = append(r.latMS, float64(d.Nanoseconds())/1e6/float64(n))
	if err != nil {
		r.failed += n
		if r.firstErr == nil {
			r.firstErr = err
			fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
		}
	}
}

// window is one measured stretch of whole passes.
type window struct {
	rec    *recorder
	passes int
	// Per pass: ops per host second and CPU microseconds per op. The
	// end-to-end rates are their medians, so a burst of host
	// interference during one pass does not move the figure.
	passRate, passCPU []float64
	elapsed           time.Duration
	mallocs           uint64
	bytes             uint64
	numGC             uint64  // automatic collections only
	gcCPU             float64 // share of process CPU spent in the GC
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/automatic:gc-cycles"},
}

// gcStats reads the GC's CPU seconds, the process's CPU seconds and the
// count of automatic (not forced) collections.
func gcStats() (gc, total float64, cycles uint64) {
	metrics.Read(gcSamples)
	if gcSamples[0].Value.Kind() != metrics.KindFloat64 || gcSamples[2].Value.Kind() != metrics.KindUint64 {
		return 0, 0, 0
	}
	return gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64(), gcSamples[2].Value.Uint64()
}

// measure runs whole passes until d has elapsed.
func measure(w workload, d time.Duration, tr *tracer) window {
	rec := &recorder{tr: tr}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, tot0, cyc0 := gcStats()
	t0 := time.Now()
	win := window{rec: rec}
	for win.passes == 0 || time.Since(t0) < d {
		// Each pass starts from a collected heap, as the scale suite's
		// rows do, so no pass pays the previous one's GC debt.
		runtime.GC()
		ops, p0, pc0 := rec.ops, time.Now(), cpuTime()
		tr.begin("pass")
		w.pass(rec)
		tr.end()
		n := float64(rec.ops - ops)
		win.passRate = append(win.passRate, n/time.Since(p0).Seconds())
		win.passCPU = append(win.passCPU, float64((cpuTime()-pc0).Microseconds())/n)
		win.passes++
	}
	win.elapsed = time.Since(t0)
	// The runtime's CPU-class estimates are refreshed at GC; force one so
	// the window's GC share is complete.
	runtime.GC()
	gc1, tot1, cyc1 := gcStats()
	runtime.ReadMemStats(&ms1)
	win.mallocs = ms1.Mallocs - ms0.Mallocs
	win.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	win.numGC = cyc1 - cyc0
	if tot1 > tot0 {
		win.gcCPU = (gc1 - gc0) / (tot1 - tot0)
	}
	return win
}

// setUp builds the workload and runs one unmeasured warm-up pass, so
// pools and free lists are filled before timing. It returns the set-up
// time and how many warm-up ops failed.
func setUp(mk maker, seed uint64, sc scale) (workload, float64, int) {
	t0 := time.Now()
	w := mk(seed, sc)
	rec := &recorder{}
	w.pass(rec)
	return w, time.Since(t0).Seconds(), rec.failed
}

// liveBytesPerTask is the median census over the window's own parked
// tasks, or one parkCensus of the workload's census size when its
// passes park none.
func liveBytesPerTask(w workload, rec *recorder) (live, stack float64, err error) {
	if len(rec.liveBytes) == 0 {
		l, s, cerr := parkCensus(w.censusTasks())
		if cerr != nil {
			return 0, 0, cerr
		}
		rec.liveBytes = append(rec.liveBytes, l)
		rec.stackBytes = append(rec.stackBytes, s)
	}
	return quantile(rec.liveBytes, 0.5), quantile(rec.stackBytes, 0.5), nil
}

// procResult is what one measuring process reports to the parent: one
// set-up and the raw figures of its window.
type procResult struct {
	SetupS     float64        `json:"setup_s"`
	PassRate   []float64      `json:"pass_rate"`
	PassCPU    []float64      `json:"pass_cpu_us"`
	LatMS      []float64      `json:"lat_ms"`
	Ops        int            `json:"ops"`
	Failed     int            `json:"failed"`
	WarmFailed int            `json:"warm_failed"`
	Mallocs    uint64         `json:"mallocs"`
	Bytes      uint64         `json:"bytes"`
	Live       float64        `json:"live_bytes_per_task"`
	Sizes      map[string]int `json:"sizes"`
}

// measureProc sets up once and measures for d: the work of one
// measuring process.
func measureProc(mk maker, seed uint64, sc scale, d time.Duration) (procResult, error) {
	w, setup, warmFailed := setUp(mk, seed, sc)
	win := measure(w, d, nil)
	live, _, err := liveBytesPerTask(w, win.rec)
	if err != nil {
		return procResult{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d passes in %.2fs; ops/s per pass min %.6g median %.6g max %.6g\n",
		win.passes, win.elapsed.Seconds(), quantile(win.passRate, 0), quantile(win.passRate, 0.5), quantile(win.passRate, 1))
	return procResult{
		SetupS: setup, PassRate: win.passRate, PassCPU: win.passCPU, LatMS: win.rec.latMS,
		Ops: win.rec.ops, Failed: win.rec.failed, WarmFailed: warmFailed,
		Mallocs: win.mallocs, Bytes: win.bytes, Live: live, Sizes: w.sizes(),
	}, nil
}

// aggregate folds the measuring processes into the end-to-end result.
// Rates and latencies are medians and percentiles over every process's
// passes and ops pooled, set-up and live bytes are medians over the
// processes, and allocation counts are totals over total ops.
func aggregate(ps []procResult) result {
	var setup, live, rate, cpu, lat []float64
	var mallocs, bytes uint64
	res := result{sizes: map[string]int{}}
	for _, p := range ps {
		setup = append(setup, p.SetupS)
		live = append(live, p.Live)
		rate = append(rate, p.PassRate...)
		cpu = append(cpu, p.PassCPU...)
		lat = append(lat, p.LatMS...)
		mallocs += p.Mallocs
		bytes += p.Bytes
		res.attempted += p.Ops
		res.failed += p.Failed
		res.warmFailed += p.WarmFailed
		for k, v := range p.Sizes {
			res.sizes[k] = v
		}
	}
	ops := float64(res.attempted)
	res.set("setup_s", quantile(setup, 0.5), "s")
	res.set("ops_per_s", quantile(rate, 0.5), "1/s")
	res.set("cpu_us_per_op", quantile(cpu, 0.5), "us")
	res.set("allocs_per_op", float64(mallocs)/ops, "count")
	res.set("alloc_bytes_per_op", float64(bytes)/ops, "B")
	res.set("op_ms_p50", quantile(lat, 0.50), "ms")
	res.set("op_ms_p99", quantile(lat, 0.99), "ms")
	res.set("live_bytes_per_task", quantile(live, 0.5), "B")
	res.sizes["processes"] = len(ps)
	res.sizes["passes"] = len(rate)
	res.sizes["latency_samples"] = len(lat)
	return res
}

// quantile is the linearly interpolated q-quantile of xs (the
// "inclusive" method), NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
