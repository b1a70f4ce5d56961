package metrics

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// histTrace interleaves stride runs with context-dependent noise over
// several PCs so both the oracle and the level-2 occupancy are
// non-trivial.
func histTrace(n int) trace.Trace {
	tr := make(trace.Trace, 0, n)
	var a, b uint32
	for i := 0; i < n; i++ {
		a += 4
		tr = append(tr, trace.Event{PC: 0x100, Value: a})
		b = b*5 + uint32(i%9)
		tr = append(tr, trace.Event{PC: 0x104 + 4*uint32(i%3), Value: b})
	}
	return tr
}

// TestStrideHistsMatchPerRunHistograms: the single-pass shared-oracle
// scan must reproduce, bit for bit, the histograms of one
// StrideHist.Run per predictor over the same trace.
func TestStrideHistsMatchPerRunHistograms(t *testing.T) {
	tr := histTrace(4000)
	const oracleBits, l2 = 10, 8

	fref := NewStrideHist(1<<l2, oracleBits).Run(core.NewFCM(8, l2), tr)
	dref := NewStrideHist(1<<l2, oracleBits).Run(core.NewDFCM(8, l2), tr)

	got := StrideHists(oracleBits, tr, core.NewFCM(8, l2), core.NewDFCM(8, l2))
	if len(got) != 2 {
		t.Fatalf("got %d histograms", len(got))
	}
	for i, ref := range [][]uint64{fref, dref} {
		if len(got[i]) != len(ref) {
			t.Fatalf("hist %d: %d entries, want %d", i, len(got[i]), len(ref))
		}
		for j := range ref {
			if got[i][j] != ref[j] {
				t.Errorf("hist %d rank %d: %d, want %d", i, j, got[i][j], ref[j])
				break
			}
		}
	}
	if got[0].Total() == 0 {
		t.Error("no stride accesses recorded; trace not exercising the oracle")
	}
}

// TestStrideHistsRejectsNonIndexer mirrors StrideHist.Run's contract.
func TestStrideHistsRejectsNonIndexer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for predictor without L2Index")
		}
	}()
	StrideHists(4, histTrace(1), core.NewLastValue(4))
}
