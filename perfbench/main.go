// Command perfbench is the repository benchmark. One workload per run:
// it builds its inputs from --seed, measures for about --seconds,
// checks the program's outputs, and prints as its last line one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1). See README.md beside this file.
//
//	bash perfbench/run.sh --workload serve-split --seed 1 --seconds 15 --trace 0
//
// It must run from the repository root: the offline workloads compare
// their output with the committed artifacts/ files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer are the metric catalogue, name → unit, kept in
// step with BENCHMARK.json (TestCatalogueMatchesBenchmarkJSON). Every
// run prints every metric of its mode.
var endToEnd = map[string]string{
	"setup_s":      "s",
	"wall_s":       "s",
	"cpu_s":        "s",
	"peak_rss_mb":  "MiB",
	"events_per_s": "1/s",
	"rtt_p50_us":   "us",
}

var perLayer = func() map[string]string {
	m := map[string]string{
		"vm.trace_s":               "s",
		"vm.events":                "count",
		"vm.cold_minus_warm_s":     "s",
		"engine.sweep_s":           "s",
		"engine.cpu_util":          "frac",
		"report.render_s":          "s",
		"serve.predict_rtt_p50_us": "us",
		"serve.update_rtt_p50_us":  "us",
		"serve.rtt_p99_us":         "us",
		"serve_engine.busy_frac":   "frac",
		"router.backend_share":     "frac",
		"trace.overhead_frac":      "frac",
	}
	for _, k := range coreKinds {
		m["core."+k+".ns_per_event"] = "ns"
	}
	for _, row := range ledgerRows {
		for _, size := range ledgerSizes {
			m[fmt.Sprintf("%s.frame%d_us", row, size)] = "us"
		}
	}
	return m
}()

// options are the command-line settings every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// spanDir is where a traced run writes its spans, inside the build
// directory of the checkout.
var spanDir = filepath.Join(".bench_build", "perfbench", "out")

// workload measures one run. It returns an error only when it could not
// measure at all; wrong outputs are counted in the outcome.
type workload func(options) (*outcome, error)

var workloads = map[string]workload{
	"offline-dfcm": offlineDFCM.measure,
	"offline-tage": offlineTAGE.measure,
	"serve-split":  serveSplit.measure,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: offline-dfcm | offline-tage | serve-split")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 15, "length of the timed region in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if _, err := os.Stat("artifacts"); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root (no artifacts/ here)")
		return 2
	}
	o := options{seed: *seed, seconds: float64(*seconds), trace: *traced == 1}
	return execute(*name, w, o, stdout, stderr)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs w and prints its report and result line. The exit code
// is 1 when any output check failed or the workload could not run.
func execute(name string, w workload, o options, stdout, stderr io.Writer) int {
	host := newHostRecord(".")
	start := time.Now()
	out, err := w(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	if err := out.complete(want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	for _, l := range out.lines {
		fmt.Fprintln(stdout, l)
	}
	failFrac := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Fprintf(stdout, "fail_frac %.6f (%d failed of %d attempted)\n", failFrac, out.failed, out.attempted)
	rec, err := json.Marshal(struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Trace    bool        `json:"trace"`
		Host     hostRecord  `json:"host"`
		Regions  []regionRec `json:"regions"`
		RunS     float64     `json:"run_s"`
	}{name, o.seed, o.trace, host, out.regions, time.Since(start).Seconds()})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: record: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", rec)
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, out.metrics})
	if err != nil { // a metric that is not a number
		fmt.Fprintf(stderr, "perfbench: %s: result: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", res)
	if out.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed their output check\n",
			name, out.failed, out.attempted)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// regionRec is one timed region of a run with the host steal measured
// over it; steal is recorded, never used to adjust a number.
type regionRec struct {
	Name string `json:"name"`
	reading
}

// outcome accumulates one run's counts, metrics and report lines.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	regions           []regionRec
	lines             []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

func (o *outcome) set(name string, v float64) {
	unit, ok := endToEnd[name]
	if !ok {
		unit = perLayer[name]
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) logf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// count records n attempted operations of which bad failed.
func (o *outcome) count(n, bad int) {
	o.attempted += int64(n)
	o.failed += int64(bad)
}

func (o *outcome) region(name string, r reading) {
	o.regions = append(o.regions, regionRec{name, r})
}

// complete checks that the run produced exactly the metrics of its mode.
func (o *outcome) complete(want map[string]string) error {
	var missing, extra []string
	for n := range want {
		if _, ok := o.metrics[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range o.metrics {
		if _, ok := want[n]; !ok {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return fmt.Errorf("metric set mismatch: missing %v, unexpected %v", missing, extra)
	}
	return nil
}

// logSpans reports each span name's count, total and self time, and
// writes the spans to spanDir/file.
func (o *outcome) logSpans(file string, spans []span) error {
	self := selfTimes(spans)
	dur, n := totals(spans)
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	o.logf("%-34s %8s %12s %12s", "span", "count", "total_ms", "self_ms")
	for _, k := range names {
		o.logf("%-34s %8d %12.3f %12.3f", k, n[k], float64(dur[k])/1e6, float64(self[k])/1e6)
	}
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(spanDir, file), spans)
}
