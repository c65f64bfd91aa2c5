package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// runTraced is the per-layer run. It sets up like the end-to-end run,
// then measures half the time untraced and half with spans and a CPU
// profile on, so the tracing overhead is the difference in ops_per_s
// between the two halves. The per-layer micro-loops run last. Spans, the
// profile and the micro-loop quartiles are written to
// <outDir>/perfbench-<workload>-<seed>.*.
func runTraced(wl string, seed uint64, sc scale, d time.Duration, outDir string) (result, error) {
	w, _, warmFailed := setUp(workloads[wl], seed, sc)
	half := max(d/2, time.Second)
	plain := measure(w, half, nil)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	traced := measure(w, half, tr)
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}

	_, stack, err := liveBytesPerTask(w, plain.rec)
	if err != nil {
		return result{}, err
	}
	layers, err := runLayers()
	if err != nil {
		return result{}, err
	}

	res := result{
		attempted:  plain.rec.ops + traced.rec.ops,
		failed:     plain.rec.failed + traced.rec.failed,
		warmFailed: warmFailed,
		sizes:      w.sizes(),
	}
	for _, l := range layers {
		res.set(l.Name, l.Median, l.Unit)
	}
	for _, m := range modules {
		res.set(m+".cpu_share", shares[m], "fraction")
	}
	ops := float64(plain.rec.ops)
	plainRate, tracedRate := quantile(plain.passRate, 0.5), quantile(traced.passRate, 0.5)
	res.set("trace.ops_per_s_untraced", plainRate, "1/s")
	res.set("trace.ops_per_s_traced", tracedRate, "1/s")
	res.set("trace.overhead_frac", 1-tracedRate/plainRate, "fraction")
	res.set("kernel.syscalls", float64(plain.rec.syscalls)/ops, "count")
	res.set("kernel.ctx_switches", float64(plain.rec.ctxSwitches)/ops, "count")
	hostPerSyscall := 0.0
	if plain.rec.syscalls > 0 {
		hostPerSyscall = float64(plain.rec.kernWall.Nanoseconds()) / float64(plain.rec.syscalls)
	}
	res.set("kernel.host_ns_per_syscall", hostPerSyscall, "ns")
	res.set("fault.injections", float64(plain.rec.injections)/ops, "count")
	res.set("runtime.gc_cpu_frac", plain.gcCPU, "fraction")
	res.set("runtime.gc_cycles_per_op", float64(plain.numGC)/ops, "count")
	res.set("runtime.stack_bytes_per_task", stack, "B")
	res.set("failed_frac", float64(res.failed)/float64(max(res.attempted, 1)), "fraction")

	report := map[string]any{
		"manifest":    newManifest(wl, seed, int(d/time.Second), 1, res.sizes),
		"cpu_samples": samples,
		"cpu_share":   shares,
		"span_self":   tr.stats(),
		"spans":       tr.spans,
		"layers":      layers,
		"untraced":    map[string]any{"ops": plain.rec.ops, "passes": plain.passes, "seconds": plain.elapsed.Seconds()},
		"traced":      map[string]any{"ops": traced.rec.ops, "passes": traced.passes, "seconds": traced.elapsed.Seconds()},
	}
	prefix := filepath.Join(outDir, fmt.Sprintf("perfbench-%s-%d", wl, seed))
	if err := writeReport(prefix, report, prof.Bytes()); err != nil {
		return result{}, err
	}
	for _, st := range tr.stats() {
		fmt.Fprintf(os.Stderr, "span %-28s n=%-7d total=%10.1fms self=%10.1fms\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
	}
	return res, nil
}

func writeReport(prefix string, report map[string]any, prof []byte) error {
	if err := os.MkdirAll(filepath.Dir(prefix), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(prefix+".report.json", b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(prefix+".cpu.pprof", prof, 0o644)
}
