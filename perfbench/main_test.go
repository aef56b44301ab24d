package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"decafdrivers/internal/lint"
	"decafdrivers/internal/xpc"
)

// TestMain routes the re-executed test binary into the proc transport's
// worker loop, as main does.
func TestMain(m *testing.M) {
	xpc.MaybeRunWorker()
	os.Exit(m.Run())
}

func short(t *testing.T, workload string) options {
	t.Helper()
	return options{workload: workload, seed: 7, seconds: 0.3, out: t.TempDir()}
}

// lastLine decodes the JSON object a run prints last.
func lastLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	return v
}

// TestForcedMismatchFailsRun: one RX frame damaged on its way to the sink
// must fail the output checks, print correct=false and exit 1.
func TestForcedMismatchFailsRun(t *testing.T) {
	o := short(t, "net-duplex")
	o.corrupt = true
	res, err := runNetDuplex(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || len(res.problems) == 0 || !strings.Contains(res.problems[0], "rx:") {
		t.Fatalf("damaged RX frame passed the checks: correct=%v problems=%q", res.correct, res.problems)
	}
	var stdout, stderr bytes.Buffer
	if code := report(res, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if v := lastLine(t, stdout.String()); v["correct"] != false {
		t.Fatalf("JSON reports correct=%v", v["correct"])
	}
}

// TestWorkloadsPassChecks runs each workload briefly and checks that the
// untraced output names exactly the end-to-end metrics in BENCHMARK.json,
// with their units.
func TestWorkloadsPassChecks(t *testing.T) {
	spec := readSpec(t)
	for _, w := range []string{"net-duplex", "pcm-ctl"} {
		t.Run(w, func(t *testing.T) {
			res, err := workloads[w](short(t, w))
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct {
				t.Fatalf("checks failed: %q", res.problems)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", res.attempted, res.failed)
			}
			sameMetrics(t, res, spec.EndToEnd)
		})
	}
}

// TestRecoverCountsFailStop: the recover workload runs its whole schedule
// on one boot and accounts every frame, whatever the recoveries did.
func TestRecoverCountsFailStop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full kill schedule")
	}
	o := short(t, "recover")
	o.seconds = 60
	res, err := runRecover(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Fatalf("checks failed: %q", res.problems)
	}
	if res.attempted == 0 {
		t.Fatal("nothing attempted")
	}
}

// TestTracedRunCoversEveryLayer: a traced run reports every per-layer
// metric named in BENCHMARK.json and stores spans for every layer.
func TestTracedRunCoversEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three testbeds")
	}
	spec := readSpec(t)
	o := short(t, "pcm-ctl")
	o.trace = true
	res, err := runPCMCtl(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Fatalf("checks failed: %q", res.problems)
	}
	sameMetrics(t, res, spec.PerLayer)
	data, err := os.ReadFile(spansPath(o))
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		var s struct{ Layer string }
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		layers[s.Layer] = true
	}
	for _, l := range []string{"knet", "kernel", "ktime", "hw", "ksound", "xpc", "xpc/proc", "xdr", "decaf/registry", "recovery", "process", "go"} {
		if !layers[l] {
			t.Errorf("no stored span for layer %s", l)
		}
	}
}

type specMetric struct {
	Name, Unit string
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func sameMetrics(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	var got, exp []string
	for _, m := range res.metrics {
		got = append(got, m.name+" "+m.unit)
	}
	for _, m := range want {
		exp = append(exp, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(exp)
	if strings.Join(got, ",") != strings.Join(exp, ",") {
		t.Fatalf("metrics printed:\n%v\nBENCHMARK.json:\n%v", got, exp)
	}
}

// TestSourceClean: the benchmark's Go files are gofmt-clean, go vet-clean
// and clean under the repository's decafvet analyzers.
func TestSourceClean(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := format.Source(src); err != nil || !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-clean (%v)", f, err)
		}
	}
	if testing.Short() {
		return
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := mod.Packages(root, "./perfbench/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range lint.Run(pkgs, lint.Analyzers()) {
		t.Errorf("decafvet: %s", f)
	}
	if goTool, err := exec.LookPath("go"); err == nil {
		if out, err := exec.Command(goTool, "vet", ".").CombinedOutput(); err != nil {
			t.Errorf("go vet: %v\n%s", err, out)
		}
	}
}
