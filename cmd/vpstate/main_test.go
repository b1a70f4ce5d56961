package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// writeSnap trains a predictor of the given spec for n events and
// writes its snapshot, returning the path.
func writeSnap(t *testing.T, dir, name string, spec core.Spec, n int, meta snapshot.Meta) string {
	t.Helper()
	p, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	events := make(trace.Trace, 0, n)
	for i := 0; len(events) < n; i++ {
		events = append(events,
			trace.Event{PC: 0x500, Value: 11},
			trace.Event{PC: 0x504, Value: uint32(i) * 4},
		)
	}
	core.Run(p, events[:n])
	snap, err := snapshot.Capture(spec, p, meta)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := snapshot.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"inspect"},
		{"validate"},
		{"diff", "only-one.vps"},
	} {
		if code, _, _ := runCmd(args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	spec := core.Spec{Kind: "dfcm", L1: 6, L2: 8}
	path := writeSnap(t, dir, "s.vps", spec, 500, snapshot.Meta{Session: 9, Predictions: 500, Hits: 250, Updates: 500})

	code, out, _ := runCmd("inspect", path)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, want := range []string{
		"version:     1",
		"spec:        dfcm:6:8",
		"session:     9",
		"hits:        250 (50.00%)",
		"tables:",
		"l1", "l2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}

	if code, _, _ := runCmd("inspect", filepath.Join(dir, "missing.vps")); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

func TestValidate(t *testing.T) {
	dir := t.TempDir()
	good := writeSnap(t, dir, "good.vps", core.Spec{Kind: "fcm", L1: 5, L2: 7}, 300, snapshot.Meta{Session: 1})

	// Corrupt a copy: flip one state byte so the checksum fails.
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-16] ^= 0xFF
	bad := filepath.Join(dir, "bad.vps")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, _ := runCmd("validate", good, bad)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "good.vps: ok") {
		t.Errorf("good file not reported ok:\n%s", out)
	}
	if !strings.Contains(out, "bad.vps: INVALID") {
		t.Errorf("corrupt file not reported invalid:\n%s", out)
	}

	if code, _, _ := runCmd("validate", good); code != 0 {
		t.Errorf("all-good validate: exit %d, want 0", code)
	}
}

func TestDiff(t *testing.T) {
	dir := t.TempDir()
	spec := core.Spec{Kind: "dfcm", L1: 5, L2: 7}
	meta := snapshot.Meta{Session: 2, Predictions: 400, Hits: 100, Updates: 400}
	a := writeSnap(t, dir, "a.vps", spec, 400, meta)
	same := writeSnap(t, dir, "same.vps", spec, 400, meta)
	longer := writeSnap(t, dir, "longer.vps", spec, 800, meta)
	otherSpec := writeSnap(t, dir, "other.vps", core.Spec{Kind: "lvp", L1: 5}, 400, meta)

	if code, out, _ := runCmd("diff", a, same); code != 0 || !strings.Contains(out, "equivalent") {
		t.Errorf("identical snapshots: exit %d\n%s", code, out)
	}
	code, out, _ := runCmd("diff", a, longer)
	if code != 1 || !strings.Contains(out, "state:") {
		t.Errorf("different state: exit %d, want 1\n%s", code, out)
	}
	// Against an untrained snapshot, the occupancy delta localizes the
	// difference per table.
	empty := writeSnap(t, dir, "empty.vps", spec, 0, meta)
	if code, out, _ := runCmd("diff", a, empty); code != 1 || !strings.Contains(out, "table") {
		t.Errorf("trained-vs-empty diff lacks table detail: exit %d\n%s", code, out)
	}
	if code, out, _ := runCmd("diff", a, otherSpec); code != 1 || !strings.Contains(out, "spec:") {
		t.Errorf("spec mismatch: exit %d\n%s", code, out)
	}
	if code, _, _ := runCmd("diff", a, filepath.Join(dir, "missing.vps")); code != 2 {
		t.Errorf("unreadable input: exit %d, want 2", code)
	}

	// Width 0 and width 32 are the same dfcm — canonical compare.
	w0 := writeSnap(t, dir, "w0.vps", core.Spec{Kind: "dfcm", L1: 5, L2: 7}, 400, meta)
	w32 := writeSnap(t, dir, "w32.vps", core.Spec{Kind: "dfcm", L1: 5, L2: 7, Width: 32}, 400, meta)
	if code, out, _ := runCmd("diff", w0, w32); code != 0 {
		t.Errorf("canonical specs treated as different: exit %d\n%s", code, out)
	}
}

// TestInspectTAGE: a tage snapshot renders its geometry in the spec
// line and its per-table occupancy (base, tagged tables with history
// lengths, history ring) through StateTabler.
func TestInspectTAGE(t *testing.T) {
	dir := t.TempDir()
	spec := core.Spec{Kind: "tage", L1: 6, L2: 5, Tables: 3, Tag: 8, HistMin: 4, HistMax: 32}
	path := writeSnap(t, dir, "tage.vps", spec, 600, snapshot.Meta{Session: 3, Predictions: 600, Hits: 200, Updates: 600})
	code, out, _ := runCmd("inspect", path)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, want := range []string{
		"spec:        tage:6:5:32:0:3:8:4:32",
		"base", "t1(h4)", "t2(h", "t3(h32)", "hist",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tage inspect output missing %q:\n%s", want, out)
		}
	}
}

// TestDiffTAGE: two same-geometry tage snapshots that diverge in state
// get the tagged rendering — per-table diverging-entry counts, the
// provider histograms, and any differing u-counter histograms.
func TestDiffTAGE(t *testing.T) {
	dir := t.TempDir()
	spec := core.Spec{Kind: "tage", L1: 6, L2: 5, Tables: 3, Tag: 8, HistMin: 4, HistMax: 32}
	meta := snapshot.Meta{Session: 5, Predictions: 400, Hits: 100, Updates: 400}
	// An alternating-stride stream keeps the base component wrong and
	// the tagged tables allocating (the plain writeSnap workload is
	// base-predictable and never dirties them); two different stride
	// patterns fill the tagged tables with different entries.
	writeAlt := func(name string, strides []uint32) string {
		p, err := spec.New()
		if err != nil {
			t.Fatal(err)
		}
		v := uint32(0)
		events := make(trace.Trace, 600)
		for i := range events {
			v += strides[i%len(strides)]
			events[i] = trace.Event{PC: 0x500, Value: v}
		}
		core.Run(p, events)
		snap, err := snapshot.Capture(spec, p, meta)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := snapshot.WriteFile(path, snap); err != nil {
			t.Fatal(err)
		}
		return path
	}
	short := writeAlt("short.vps", []uint32{3, 17, 5})
	long := writeAlt("long.vps", []uint32{9, 2, 25, 7})

	code, out, _ := runCmd("diff", short, long)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"diverging entries", "provider histogram"} {
		if !strings.Contains(out, want) {
			t.Errorf("tage diff output missing %q:\n%s", want, out)
		}
	}

	// Same state → no tagged rendering, just equivalence.
	same := writeAlt("same.vps", []uint32{3, 17, 5})
	if code, out, _ := runCmd("diff", short, same); code != 0 {
		t.Errorf("identical tage snapshots: exit %d\n%s", code, out)
	}
}
