package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
)

func TestPercentileCountsAndRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, n, err := percentile(xs, 0.99)
	if err != nil || n != 1000 || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %d samples, %v; want 990, 1000, nil", v, n, err)
	}
	if _, n, err := percentile(xs[:999], 0.99); err == nil || n != 999 {
		t.Fatalf("p99 of 999 samples (9 beyond) = %d samples, %v; want a refusal", n, err)
	}
	if v, n, err := percentile(xs[:20], 0.5); err != nil || n != 20 || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %d, %v; want 10, 20, nil", v, n, err)
	}
	if _, _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond) was not refused")
	}
}

func TestMedianAndWindowRates(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	// Three completions in the first 100ms window, one in the second,
	// one in the dropped partial third.
	at := []int64{1e6, 50e6, 99e6, 150e6, 210e6}
	got := windowRates(at, 64, 100e6, 250e6)
	if want := []float64{3 * 64 * 10, 1 * 64 * 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("windowRates = %v, want %v", got, want)
	}
}

func TestSelfTimeHandBuiltTree(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60) that overlap,
	// and c [90,120) that runs past the root's end; a has a child
	// [15,25).
	spans := []span{
		{ID: 1, Name: "root", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "a", Parent: 0, Start: 10, End: 40},
		{ID: 1, Name: "b", Parent: 0, Start: 30, End: 60},
		{ID: 1, Name: "c", Parent: 0, Start: 90, End: 120},
		{ID: 1, Name: "a.child", Parent: 1, Start: 15, End: 25},
		{ID: 2, Name: "root", Parent: -1, Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root":    (100 - 50 - 10) + 10, // kids cover [10,60) and [90,100); root 2 has none
		"a":       30 - 10,
		"b":       30,
		"c":       30,
		"a.child": 10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestSpanLogMergeRebasesParents(t *testing.T) {
	a, b := &spanLog{}, &spanLog{}
	a.spans = []span{{Name: "x", Parent: -1}}
	b.spans = []span{{Name: "root", Parent: -1}, {Name: "kid", Parent: 0}}
	a.merge(b)
	if a.spans[2].Parent != 1 || a.spans[1].Parent != -1 {
		t.Fatalf("merged parents = %+v", a.spans)
	}
	var nilLog *spanLog
	if i := nilLog.add(1, "x", -1, time.Now(), time.Now()); i != -1 {
		t.Fatal("nil log recorded a span")
	}
}

func testTraces(t *testing.T) []namedTrace {
	t.Helper()
	traces, err := specTraces(200_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

func TestSameSeedSameInputs(t *testing.T) {
	traces := testTraces(t)
	a, err := makeSessions(7, 64, 4096, traces)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeSessions(7, 64, 4096, traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].id != b[i].id || a[i].bench != b[i].bench || a[i].offset != b[i].offset {
			t.Fatalf("session %d differs: %+v vs %+v", i, a[i], b[i])
		}
		for k := 0; k < 3; k++ {
			ea, pa := a[i].frame(k)
			eb, pb := b[i].frame(k)
			if !reflect.DeepEqual(ea, eb) || !reflect.DeepEqual(pa, pb) {
				t.Fatalf("session %d frame %d differs", i, k)
			}
		}
	}
	if !reflect.DeepEqual(ledgerFramesOf(traces, 64, 100), ledgerFramesOf(traces, 64, 100)) {
		t.Fatal("ledger frames differ between identical calls")
	}
}

func TestSeedChangesPlacement(t *testing.T) {
	traces := testTraces(t)
	ring := cluster.NewRing(cluster.DefaultVNodes)
	ring.Add("backend-a")
	ring.Add("backend-b")
	placement := func(seed uint64) []string {
		sessions, err := makeSessions(seed, 64, 4096, traces)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range sessions {
			addr, _ := ring.Lookup(s.id)
			out = append(out, addr)
		}
		return out
	}
	if reflect.DeepEqual(placement(1), placement(2)) {
		t.Fatal("seeds 1 and 2 place every session on the same backend")
	}
	if !reflect.DeepEqual(placement(3), placement(3)) {
		t.Fatal("seed 3 placed sessions differently twice")
	}
}

// lastJSON decodes the result line a run prints last.
func lastJSON(t *testing.T, out string) (correct bool, attempted, failed int64) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res.Correct, res.Attempted, res.Failed
}

func TestPerturbedArtifactFailsTheRun(t *testing.T) {
	const budget = 2000
	dir := t.TempDir()
	e, err := experiments.Get("fig10a")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(experiments.Config{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range render(res) {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w := offline{ids: []string{"fig10a"}, budget: budget, artifactDir: dir}
	o := options{seed: 1, seconds: 1}

	var stdout, stderr bytes.Buffer
	if code := execute("offline-test", w.measure, o, &stdout, &stderr); code != 0 {
		t.Fatalf("unperturbed run exited %d: %s\n%s", code, stderr.String(), stdout.String())
	}
	if ok, _, failed := lastJSON(t, stdout.String()); !ok || failed != 0 {
		t.Fatalf("unperturbed run: correct %v, failed %d", ok, failed)
	}

	csv := filepath.Join(dir, "fig10a.0.csv")
	b, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(csv, b, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := execute("offline-test", w.measure, o, &stdout, &stderr); code == 0 {
		t.Fatalf("run against a perturbed artifact exited 0:\n%s", stdout.String())
	}
	ok, attempted, failed := lastJSON(t, stdout.String())
	if ok || failed == 0 || attempted < failed {
		t.Fatalf("perturbed artifact: correct %v, %d of %d failed", ok, failed, attempted)
	}
	if !strings.Contains(stdout.String(), fmt.Sprintf("fail_frac %.6f", float64(failed)/float64(attempted))) ||
		!strings.Contains(stdout.String(), "fig10a.0.csv differs") {
		t.Fatalf("report does not name the mismatch:\n%s", stdout.String())
	}
}

func TestPerturbedOracleFailsTheRun(t *testing.T) {
	w := serving{sessions: 8, conns: 2, backends: 2, budget: 200_000, sliceLen: 4096, setups: 1}
	o := options{seed: 1, seconds: 1}
	var stdout, stderr bytes.Buffer
	if code := execute("serve-test", w.measure, o, &stdout, &stderr); code != 0 {
		t.Fatalf("unperturbed run exited %d: %s\n%s", code, stderr.String(), stdout.String())
	}
	if ok, _, failed := lastJSON(t, stdout.String()); !ok || failed != 0 {
		t.Fatalf("unperturbed run: correct %v, failed %d", ok, failed)
	}

	var skewed *session
	w.oracle = func(s *session, frames int) (uint64, error) {
		hits, err := oracleHits(s, frames)
		if skewed == nil || skewed == s {
			skewed = s
			hits++
		}
		return hits, err
	}
	stdout.Reset()
	if code := execute("serve-test", w.measure, o, &stdout, &stderr); code == 0 {
		t.Fatalf("run against a perturbed oracle exited 0:\n%s", stdout.String())
	}
	ok, attempted, failed := lastJSON(t, stdout.String())
	if ok || failed != 1 || attempted < 8 {
		t.Fatalf("perturbed oracle: correct %v, %d of %d failed; want exactly the one skewed session", ok, failed, attempted)
	}
	if !strings.Contains(stdout.String(), "FAIL serve: session") {
		t.Fatalf("report does not name the session:\n%s", stdout.String())
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, cat map[string]string) {
		got := make(map[string]string)
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, cat) {
			t.Errorf("%s metrics in BENCHMARK.json %v, catalogue %v", kind, got, cat)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads in BENCHMARK.json %v, here %v", names, workloadNames())
	}
}
