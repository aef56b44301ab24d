// Command perfbench is the repository's wall-clock benchmark: it boots
// simulated drivers whose decaf half runs in a real worker process (the
// proc transport) and times driver operations from submission to settled
// completion.
//
// Usage:
//
//	perfbench --workload net-duplex|pcm-ctl|recover --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// again with spans recorded around every layer call and prints per-layer
// metrics, writing the spans under --out. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. Any
// failed output check prints correct=false and exits 1. Every time is
// wall-clock; every count is labelled as a count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"decafdrivers/internal/xpc"
)

func main() {
	// The proc transport re-executes this binary as its worker process.
	xpc.MaybeRunWorker()
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	corrupt  bool // damage one delivered frame (tests of the output checks)
}

var workloads = map[string]func(options) (*result, error){
	"net-duplex": runNetDuplex,
	"pcm-ctl":    runPCMCtl,
	"recover":    runRecover,
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceN int
	fs.StringVar(&o.workload, "workload", "", "net-duplex, pcm-ctl or recover")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&traceN, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceN != 0 && traceN != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload net-duplex|pcm-ctl|recover, --seconds > 0, --trace 0|1\n")
		return 2
	}
	o.trace = traceN == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return report(res, stdout, stderr)
}

// report prints a run's result and returns the exit code: 1 when any
// output check failed.
func report(res *result, stdout, stderr io.Writer) int {
	res.print(stdout)
	if !res.correct {
		for _, p := range res.problems {
			fmt.Fprintf(stderr, "perfbench: output check failed: %s\n", p)
		}
		return 1
	}
	return 0
}

// metric is one reported number. A tail percentile without enough samples
// beyond it is reported as null, never as a guess.
type metric struct {
	name, unit string
	value      float64
	null       bool
	note       string // sample count, ratio base or meaning
}

type result struct {
	workload          string
	correct           bool
	problems          []string
	attempted, failed uint64
	metrics           []metric // the JSON metrics
	report            []metric // human-readable lines printed before the JSON
}

func (r *result) add(m metric)    { r.metrics = append(r.metrics, m) }
func (r *result) note(m metric)   { r.report = append(r.report, m) }
func (r *result) fail(p []string) { r.problems = append(r.problems, p...) }

// print writes the report lines, then the JSON object as the last line.
func (r *result) print(w io.Writer) {
	for _, m := range append(r.report, r.metrics...) {
		v := "null"
		if !m.null {
			v = fmt.Sprintf("%.6g", m.value)
		}
		fmt.Fprintf(w, "%-12s %-28s %14s %-8s %s\n", r.workload, m.name, v, m.unit, m.note)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%-12s CHECK FAILED: %s\n", r.workload, p)
	}
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		var v any = m.value
		if m.null || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			v = nil
		}
		ms[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{ // a map of numbers and strings always marshals
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": ms,
	})
	fmt.Fprintf(w, "%s\n", line)
}

// latency reports a histogram's median and p99 in µs under the given
// names, each with its sample count.
func latency(h *hist, p50, p99, what string) []metric {
	n := fmt.Sprintf("wall-clock %s, n=%d", what, h.n)
	m50, ok50 := h.median()
	m99, ok99 := h.quantile(0.99)
	return []metric{
		{name: p50, unit: "us", value: m50 / 1e3, null: !ok50, note: n},
		{name: p99, unit: "us", value: m99 / 1e3, null: !ok99, note: n},
	}
}

// setupRuns is how many times an untraced run boots and warms a testbed;
// setup_s is their median.
const setupRuns = 41

// setupSeconds boots, warms and closes a testbed setupRuns times and
// returns the median set-up time.
func setupSeconds[R interface{ close() }](boot func() (R, error)) (float64, error) {
	var times []float64
	for i := 0; i < setupRuns; i++ {
		// Collect the previous set-up's testbed first, so its garbage is
		// not swept during this one.
		runtime.GC()
		t0 := time.Now()
		r, err := boot()
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		r.close()
	}
	// Hand the discarded testbeds' memory back, so the timed window's
	// resident set is the measured testbeds' alone.
	debug.FreeOSMemory()
	return median(times), nil
}

// common adds the metrics every workload reports.
func (r *result) common(setup float64, rss rssPeak) {
	if rss.err != nil {
		r.fail([]string{rss.err.Error()})
	}
	r.add(metric{name: "setup_s", unit: "s", value: setup,
		note: fmt.Sprintf("wall-clock boot+warm-up, median of %d", setupRuns)})
	r.add(metric{name: "rss_peak_mb", unit: "MB", value: rss.kb / 1024,
		note: "largest RSS sampled in the timed window, kernel-side process + worker process"})
	ok := 1.0
	if r.attempted > 0 {
		ok = float64(r.attempted-r.failed) / float64(r.attempted)
	}
	r.add(metric{name: "ok_frac", unit: "frac", value: ok,
		note: fmt.Sprintf("1 - fail_frac; %d of %d attempted failed", r.failed, r.attempted)})
	r.note(metric{name: "fail_frac", unit: "frac", value: 1 - ok,
		note: fmt.Sprintf("%d/%d attempted", r.failed, r.attempted)})
}

// spansPath is where a traced run writes its spans.
func spansPath(o options) string {
	return filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
}

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// describe joins a workload's layer coverage for the traced report.
func describe(m map[string]uint64) string {
	var parts []string
	for _, l := range []string{"knet", "kernel", "ktime", "hw", "ksound", "xpc", "xpc/proc", "xdr", "decaf/registry", "recovery", "process", "go"} {
		parts = append(parts, fmt.Sprintf("%s=%d", l, m[l]))
	}
	return "spans per layer: " + strings.Join(parts, " ")
}
