package core

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// mixedTrace interleaves a constant instruction, a stride instruction,
// a context-pattern instruction and a random instruction.
func mixedTrace(n int, seed int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	pattern := []uint32{3, 99, 15, 2, 60}
	var tr trace.Trace
	for i := 0; i < n; i++ {
		tr = append(tr,
			trace.Event{PC: 0x100, Value: 7},
			trace.Event{PC: 0x104, Value: uint32(i * 16)},
			trace.Event{PC: 0x108, Value: pattern[i%len(pattern)]},
			trace.Event{PC: 0x10c, Value: rng.Uint32()},
		)
	}
	return tr
}

func TestPerfectHybridAtLeastAsGoodAsComponents(t *testing.T) {
	tr := mixedTrace(2000, 1)
	stride := Run(NewStride(8), tr).Accuracy()
	fcm := Run(NewFCM(8, 12), tr).Accuracy()
	hybrid := Run(NewPerfectHybrid(NewStride(8), NewFCM(8, 12)), tr).Accuracy()
	if hybrid < stride || hybrid < fcm {
		t.Errorf("perfect hybrid %.3f below components (stride %.3f, fcm %.3f)",
			hybrid, stride, fcm)
	}
}

func TestPerfectHybridScoreSemantics(t *testing.T) {
	// Correct iff any component correct.
	a, b := NewLastValue(4), NewStride(4)
	h := NewPerfectHybrid(a, b)
	h.Score(0x40, 10) // trains both
	h.Score(0x40, 20) // stride learns +10; lvp learns 20
	// Next value 30: stride predicts 30 (correct), lvp predicts 20.
	if !h.Score(0x40, 30) {
		t.Error("hybrid should be correct when stride component is")
	}
	// Next value 20: lvp predicts 30... actually lvp predicts last=30.
	// Use a value neither predicts: stride predicts 40, lvp predicts 30.
	if h.Score(0x40, 999) {
		t.Error("hybrid should be wrong when no component is correct")
	}
}

func TestPerfectHybridUpdatesAllComponents(t *testing.T) {
	a, b := NewLastValue(4), NewLastValue(4)
	h := NewPerfectHybrid(a, b)
	h.Score(0x40, 123)
	if a.Predict(0x40) != 123 || b.Predict(0x40) != 123 {
		t.Error("Score must update every component")
	}
	h.Update(0x40, 456)
	if a.Predict(0x40) != 456 || b.Predict(0x40) != 456 {
		t.Error("Update must update every component")
	}
}

func TestDFCMBeatsPerfectStrideFCMHybridUnderPressure(t *testing.T) {
	// Section 4.3's qualitative result, in miniature: with a small L2
	// the DFCM outperforms even a perfect STRIDE+FCM hybrid, because
	// the hybrid's FCM component still wastes its L2 on strides.
	tr := make(trace.Trace, 0, 1<<17)
	pattern := []uint32{11, 3, 250, 77, 4, 92, 13, 8}
	for i := 0; len(tr) < cap(tr); i++ {
		// All PCs in one contiguous region so they occupy distinct
		// level-1 entries (0x1000 and 0x2000 would alias in a
		// 1024-entry PC-indexed table).
		for k := 0; k < 24; k++ {
			tr = append(tr, trace.Event{PC: uint32(0x1000 + k*4), Value: uint32(k*1000 + i*(2*k+1))})
		}
		for k := 0; k < 8; k++ {
			tr = append(tr, trace.Event{PC: uint32(0x1000 + (64+k)*4), Value: pattern[(i+k)%len(pattern)]})
		}
	}
	dfcm := Run(NewDFCM(10, 8), tr).Accuracy()
	hybrid := Run(NewPerfectHybrid(NewStride(10), NewFCM(10, 8)), tr).Accuracy()
	if dfcm <= hybrid-0.02 {
		t.Errorf("DFCM %.3f should be competitive with perfect STRIDE+FCM %.3f under L2 pressure",
			dfcm, hybrid)
	}
}

func TestMetaHybridTracksBetterComponent(t *testing.T) {
	// On a pure stride workload the meta predictor must converge to
	// the stride component.
	h := NewMetaHybrid(NewStride(8), NewLastValue(8), 8)
	res := Run(h, seqTrace(0x40, strideSeq(0, 3, 500)))
	if res.Accuracy() < 0.95 {
		t.Errorf("meta hybrid accuracy = %.3f, want >= 0.95 on stride workload", res.Accuracy())
	}
}

func TestMetaHybridBetweenComponentsOnMixedTrace(t *testing.T) {
	tr := mixedTrace(3000, 7)
	a := Run(NewStride(8), tr).Accuracy()
	b := Run(NewLastValue(8), tr).Accuracy()
	m := Run(NewMetaHybrid(NewStride(8), NewLastValue(8), 8), tr).Accuracy()
	lo := min(a, b)
	if m < lo-0.05 {
		t.Errorf("meta hybrid %.3f far below both components (%.3f, %.3f)", m, a, b)
	}
	perfect := Run(NewPerfectHybrid(NewStride(8), NewLastValue(8)), tr).Accuracy()
	if m > perfect {
		t.Errorf("meta hybrid %.3f above perfect hybrid %.3f", m, perfect)
	}
}

// TestPerfectHybridNestingFlattens: a nested perfect hybrid is judged
// by its own Score, so nesting is the same as listing every component
// in one hybrid, event by event — through Score and through the
// mask-based RunBatch alike.
func TestPerfectHybridNestingFlattens(t *testing.T) {
	tr := batchTrace(5000)
	flat := NewPerfectHybrid(NewLastValue(8), NewStride(8), NewFCM(8, 10))
	nested := NewPerfectHybrid(NewPerfectHybrid(NewLastValue(8), NewStride(8)), NewFCM(8, 10))
	batched := NewPerfectHybrid(NewPerfectHybrid(NewLastValue(8), NewStride(8)), NewFCM(8, 10))
	var want uint64
	for i, e := range tr {
		f := flat.Score(e.PC, e.Value)
		if n := nested.Score(e.PC, e.Value); n != f {
			t.Fatalf("event %d: nested Score %v, flat Score %v", i, n, f)
		}
		if f {
			want++
		}
	}
	if got := RunBatch(batched, tr); got.Correct != want {
		t.Errorf("nested RunBatch correct %d, flat Score %d", got.Correct, want)
	}
}
