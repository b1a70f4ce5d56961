package metrics

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

func TestWeightedMean(t *testing.T) {
	results := []BenchResult{
		{Benchmark: "a", Result: core.Result{Predictions: 100, Correct: 50}},
		{Benchmark: "b", Result: core.Result{Predictions: 300, Correct: 300}},
	}
	// total 350/400 = 0.875; an unweighted mean would be 0.75.
	if got := WeightedMean(results); got != 0.875 {
		t.Errorf("WeightedMean = %v, want 0.875", got)
	}
	if got := WeightedMean(nil); got != 0 {
		t.Errorf("empty WeightedMean = %v", got)
	}
}

func TestPareto(t *testing.T) {
	pts := []Point{
		{Name: "a", SizeBits: 100, Accuracy: 0.5},
		{Name: "b", SizeBits: 200, Accuracy: 0.4}, // dominated by a
		{Name: "c", SizeBits: 200, Accuracy: 0.6},
		{Name: "d", SizeBits: 300, Accuracy: 0.6}, // dominated by c
		{Name: "e", SizeBits: 400, Accuracy: 0.9},
		{Name: "f", SizeBits: 50, Accuracy: 0.2},
	}
	front := Pareto(pts)
	var names []string
	for _, p := range front {
		names = append(names, p.Name)
	}
	want := "f a c e"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("front = %q, want %q", got, want)
	}
	// Front must be sorted by size and strictly increasing in accuracy.
	for i := 1; i < len(front); i++ {
		if front[i].SizeBits < front[i-1].SizeBits || front[i].Accuracy <= front[i-1].Accuracy {
			t.Errorf("front not monotone at %d", i)
		}
	}
}

func TestParetoTieOnSize(t *testing.T) {
	pts := []Point{
		{Name: "lo", SizeBits: 100, Accuracy: 0.3},
		{Name: "hi", SizeBits: 100, Accuracy: 0.7},
	}
	front := Pareto(pts)
	if len(front) != 1 || front[0].Name != "hi" {
		t.Errorf("front = %+v, want only hi", front)
	}
}

func TestPointSizeKbit(t *testing.T) {
	p := Point{SizeBits: 2048}
	if p.SizeKbit() != 2 {
		t.Errorf("SizeKbit = %v", p.SizeKbit())
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Headers: []string{"name", "acc"}}
	tb.AddRow("fcm", "0.620")
	tb.AddRow("dfcm-long-name", "0.730")
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "dfcm-long-name") {
		t.Errorf("render missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), s)
	}
	// Columns align: each data line must have the same prefix width.
	if len(lines[3]) < len("dfcm-long-name") {
		t.Error("column not padded")
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "name,acc\n") || !strings.Contains(csv, "fcm,0.620") {
		t.Errorf("csv:\n%s", csv)
	}
}

func TestFormatters(t *testing.T) {
	if F(0.12345) != "0.123" {
		t.Errorf("F = %q", F(0.12345))
	}
	if Kbit(2048) != "2.0" {
		t.Errorf("Kbit = %q", Kbit(2048))
	}
}

func TestStrideHistChargesStrideAccesses(t *testing.T) {
	// A single pure-stride instruction: under DFCM almost all charged
	// accesses should land on very few entries; under FCM they spread.
	mk := func(p core.Predictor) Histogram {
		h := NewStrideHist(p.(core.L2Indexer).L2Entries(), 10)
		// A length-64 repeated stride pattern, like the paper's
		// worked example: FCM scatters it over ~64 entries, DFCM
		// collapses it to a couple.
		var tr trace.Trace
		for i := 0; i < 4000; i++ {
			tr = append(tr, trace.Event{PC: 0x40, Value: uint32(i%64) * 4})
		}
		return h.Run(p, tr)
	}
	fcm := mk(core.NewFCM(8, 10))
	dfcm := mk(core.NewDFCM(8, 10))
	if fcm.Total() == 0 || dfcm.Total() == 0 {
		t.Fatal("no stride accesses recorded")
	}
	fcmSpread := fcm.EntriesOver(10)
	dfcmSpread := dfcm.EntriesOver(10)
	if dfcmSpread > 4 {
		t.Errorf("DFCM stride accesses spread over %d entries, want <= 4", dfcmSpread)
	}
	if fcmSpread <= dfcmSpread {
		t.Errorf("FCM spread (%d) should exceed DFCM spread (%d)", fcmSpread, dfcmSpread)
	}
}

func TestHistogramHelpers(t *testing.T) {
	g := Histogram{100, 50, 50, 10, 0, 0}
	if g.EntriesOver(10) != 3 {
		t.Errorf("EntriesOver(10) = %d, want 3", g.EntriesOver(10))
	}
	if g.EntriesOver(0) != 4 {
		t.Errorf("EntriesOver(0) = %d, want 4", g.EntriesOver(0))
	}
	if g.Total() != 210 {
		t.Errorf("Total = %d", g.Total())
	}
	s := g.Sample()
	if len(s) == 0 || s[0][0] != 0 || s[0][1] != 100 {
		t.Errorf("Sample = %v", s)
	}
	if last := s[len(s)-1]; last[0] != uint64(len(g)-1) {
		t.Errorf("Sample should end at the last rank, got %v", last)
	}
}

func TestStrideHistPanicsWithoutIndexer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-two-level predictor")
		}
	}()
	h := NewStrideHist(16, 4)
	h.Run(core.NewLastValue(4), trace.Trace{{PC: 0, Value: 0}})
}

func TestTableMarkdown(t *testing.T) {
	tb := &Table{Title: "cap", Headers: []string{"a", "b"}}
	tb.AddRow("1", "2")
	md := tb.Markdown()
	for _, want := range []string{"**cap**", "| a | b |", "|---|---|", "| 1 | 2 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}
