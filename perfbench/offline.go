package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

// artifactBudget is the per-benchmark instruction budget the committed
// artifacts were regenerated with; byte-equality holds only there.
const artifactBudget = 4_000_000

const (
	// lookupReps is how many times set-up (experiment lookup) is
	// repeated; setup_s is the median.
	lookupReps = 2001
	// minRegens is the fewest cold regenerations a run measures, even
	// when one outlasts --seconds; the metrics are their medians.
	minRegens = 2
)

// offline regenerates committed artifacts in-process from a cold trace
// cache, at most nproc experiments at a time, as `dfcmsim run -j` does.
// Budget and artifact directory vary only in the self-tests.
type offline struct {
	ids         []string
	budget      uint64
	artifactDir string
}

var (
	offlineDFCM = offline{ids: []string{"fig10a", "fig16"}, budget: artifactBudget, artifactDir: "artifacts"}
	offlineTAGE = offline{ids: []string{"ext-tage"}, budget: artifactBudget, artifactDir: "artifacts"}
)

// regen is one regeneration of the workload's artifacts.
type regen struct {
	reading  reading
	latency  []float64 // s from the start of the regeneration to each artifact rendered
	runS     float64   // experiment Run time, summed over experiments
	renderS  float64   // Result.String plus CSV rendering, summed
	failures []string
}

// measure implements workload.
func (w offline) measure(o options) (*outcome, error) {
	out := newOutcome()
	want, err := loadArtifacts(w.artifactDir, w.ids)
	if err != nil {
		return nil, err
	}
	exps, setup, err := w.lookup()
	if err != nil {
		return nil, err
	}
	// The seed orders the experiment queue; the inputs themselves are
	// the committed programs and artifacts.
	order := newRNG(o.seed).perm(len(exps))
	queue := make([]experiments.Experiment, len(exps))
	for i, j := range order {
		queue[i] = exps[j]
	}
	out.logf("workload offline: %s at budget %d, seed order %v", strings.Join(w.ids, ","), w.budget, ids(queue))
	if o.trace {
		return out, w.traced(o, out, queue, want)
	}

	var walls, cpus, lats []float64
	begin := time.Now()
	for rep := 0; rep < minRegens || time.Since(begin).Seconds() < o.seconds; rep++ {
		r := w.cold(queue, want, nil, 0)
		w.account(out, fmt.Sprintf("regenerate#%d", rep), r)
		walls = append(walls, r.reading.Wall)
		cpus = append(cpus, r.reading.CPU)
		lats = append(lats, r.latency...)
	}
	rss := peakRSSMB()
	traces, err := specTraces(w.budget, nil)
	if err != nil {
		return nil, err
	}
	events := eventCount(traces)
	wall := median(walls)
	out.set("setup_s", setup)
	out.set("wall_s", wall)
	out.set("cpu_s", median(cpus))
	out.set("peak_rss_mb", rss)
	out.set("events_per_s", float64(events)/wall)
	out.set("rtt_p50_us", median(lats)*1e6)
	out.logf("regenerations %d, wall_s %v, experiment latencies %d, trace events %d", len(walls), walls, len(lats), events)
	return out, nil
}

// traced is the per-layer run: an untraced cold regeneration as the
// overhead base, then traced cold and warm ones whose difference is the
// trace generation the experiments paid, cross-checked against direct
// progs.TraceFor spans; then the core, ledger and serving probes over
// the same traces.
func (w offline) traced(o options, out *outcome, queue []experiments.Experiment, want map[string][]byte) error {
	epoch := time.Now()
	log := newSpanLog(epoch)
	base := w.cold(queue, want, nil, 0)
	w.account(out, "regenerate.untraced", base)
	cold := w.cold(queue, want, log, 1)
	w.account(out, "regenerate.cold", cold)
	warm := w.regenerate(queue, want, log, 2)
	w.account(out, "regenerate.warm", warm)
	experiments.ResetCache()
	runtime.GC()

	traces, err := specTraces(w.budget, log)
	if err != nil {
		return err
	}
	dur, _ := totals(log.spans)
	traceS := float64(dur["vm.TraceFor"]) / 1e9
	split := cold.reading.Wall - warm.reading.Wall
	out.set("vm.trace_s", traceS)
	out.set("vm.events", float64(eventCount(traces)))
	out.set("vm.cold_minus_warm_s", split)
	out.set("engine.sweep_s", warm.runS)
	out.set("engine.cpu_util", warm.reading.CPU/(warm.reading.Wall*float64(runtime.GOMAXPROCS(0))))
	out.set("report.render_s", warm.renderS)
	out.set("trace.overhead_frac", cold.reading.Wall/base.reading.Wall-1)
	out.logf("trace generation: cold-minus-warm %.3fs vs direct TraceFor %.3fs (ratio %.2f)", split, traceS, split/traceS)

	if err := probeLayers(out, log, traces); err != nil {
		return err
	}
	// The serving layers on this workload's traces: a short closed loop
	// over sessions cut from them.
	sessions, err := makeSessions(o.seed, serveSplit.sessions, serveSplit.sliceLen, traces)
	if err != nil {
		return err
	}
	probe := serveSplit
	probe.setups = 1
	res, err := probe.load(sessions, probeLoad, basePort(o.seed), log)
	if err != nil {
		return err
	}
	probe.account(out, "serve.probe", res)
	if err := serveLayers(out, res); err != nil {
		return err
	}
	return out.logSpans("spans-offline-"+strings.Join(w.ids, "+")+".tsv", log.spans)
}

// account records a regeneration's region and its output checks.
func (w offline) account(out *outcome, name string, r regen) {
	out.region(name, r.reading)
	out.count(len(w.ids), len(r.failures))
	for _, f := range r.failures {
		out.logf("FAIL %s: %s", name, f)
	}
}

// lookup resolves the workload's experiments, lookupReps times; the
// median lookup time is the offline set-up time.
func (w offline) lookup() ([]experiments.Experiment, float64, error) {
	var exps []experiments.Experiment
	times := make([]float64, lookupReps)
	for rep := range times {
		t0 := time.Now()
		exps = exps[:0]
		for _, id := range w.ids {
			e, err := experiments.Get(id)
			if err != nil {
				return nil, 0, err
			}
			exps = append(exps, e)
		}
		times[rep] = time.Since(t0).Seconds()
	}
	return exps, median(times), nil
}

// cold regenerates from an empty trace cache and a collected heap, the
// state a fresh dfcmsim process starts in.
func (w offline) cold(queue []experiments.Experiment, want map[string][]byte, log *spanLog, id uint64) regen {
	experiments.ResetCache()
	runtime.GC()
	return w.regenerate(queue, want, log, id)
}

// regenerate runs every experiment of queue once, at most nproc at a
// time, renders each result as dfcmsim -out would write it, and checks
// the rendering against want after the timed region.
func (w offline) regenerate(queue []experiments.Experiment, want map[string][]byte, log *spanLog, id uint64) regen {
	type done struct {
		start, ran, rendered time.Time
		files                map[string][]byte
		err                  error
	}
	cfg := experiments.Config{Budget: w.budget}
	results := make([]done, len(queue))
	next := make(chan int)
	var wg sync.WaitGroup
	m := startMeter()
	for j := 0; j < min(runtime.NumCPU(), len(queue)); j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				d := &results[i]
				d.start = time.Now()
				res, err := queue[i].Run(cfg)
				d.ran = time.Now()
				if err == nil {
					d.files = render(res)
				}
				d.rendered, d.err = time.Now(), err
			}
		}()
	}
	for i := range queue {
		next <- i
	}
	close(next)
	wg.Wait()
	r := regen{reading: m.stop()}

	root := log.add(id, "offline.regenerate", -1, m.wall, m.wall.Add(time.Duration(r.reading.Wall*1e9)))
	for i, d := range results {
		log.add(id, "experiments.Run", root, d.start, d.ran)
		log.add(id, "report.render", root, d.ran, d.rendered)
		r.latency = append(r.latency, d.rendered.Sub(m.wall).Seconds())
		r.runS += d.ran.Sub(d.start).Seconds()
		r.renderS += d.rendered.Sub(d.ran).Seconds()
		if d.err != nil {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", queue[i].ID, d.err))
			continue
		}
		r.failures = append(r.failures, compareArtifacts(queue[i].ID, d.files, want)...)
	}
	return r
}

// render is the artifact set dfcmsim -out writes for res: <id>.txt and
// one <id>.<n>.csv per table.
func render(res *experiments.Result) map[string][]byte {
	files := map[string][]byte{res.ID + ".txt": []byte(res.String())}
	for i, t := range res.Tables {
		files[fmt.Sprintf("%s.%d.csv", res.ID, i)] = []byte(t.CSV())
	}
	return files
}

// loadArtifacts reads the committed artifact files of ids from dir.
func loadArtifacts(dir string, ids []string) (map[string][]byte, error) {
	want := make(map[string][]byte)
	for _, id := range ids {
		paths, err := filepath.Glob(filepath.Join(dir, id+".*"))
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			if name := filepath.Base(p); isArtifactOf(id, name) {
				b, err := os.ReadFile(p)
				if err != nil {
					return nil, err
				}
				want[name] = b
			}
		}
		if _, ok := want[id+".txt"]; !ok {
			return nil, fmt.Errorf("no committed artifact %s.txt in %s", id, dir)
		}
	}
	return want, nil
}

// isArtifactOf reports whether file is <id>.txt or <id>.<n>.csv.
func isArtifactOf(id, file string) bool {
	rest, ok := strings.CutPrefix(file, id+".")
	if !ok {
		return false
	}
	if rest == "txt" {
		return true
	}
	n, ok := strings.CutSuffix(rest, ".csv")
	return ok && n != "" && strings.Trim(n, "0123456789") == ""
}

// compareArtifacts lists every difference between the rendered files of
// experiment id and the committed ones.
func compareArtifacts(id string, got, want map[string][]byte) []string {
	var diffs []string
	for name, w := range want {
		if !isArtifactOf(id, name) {
			continue
		}
		g, ok := got[name]
		switch {
		case !ok:
			diffs = append(diffs, name+" not produced")
		case !bytes.Equal(g, w):
			diffs = append(diffs, name+" differs from the committed artifact")
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			diffs = append(diffs, name+" produced but not committed")
		}
	}
	sort.Strings(diffs)
	return diffs
}

func eventCount(traces []namedTrace) int {
	n := 0
	for _, t := range traces {
		n += len(t.tr)
	}
	return n
}

func ids(exps []experiments.Experiment) []string {
	var out []string
	for _, e := range exps {
		out = append(out, e.ID)
	}
	return out
}
