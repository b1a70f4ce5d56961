package core

import (
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/trace"
	"repro/internal/workload"
)

// batchTrace builds a deterministic mixed-pattern event stream over
// 11 PCs: strided, periodic-context, constant and scrambled values, so
// every predictor kind both hits and misses.
func batchTrace(n int) trace.Trace {
	tr := make(trace.Trace, 0, n)
	period := [...]uint32{11, 3, 250, 77, 4}
	var x uint32
	for i := 0; i < n; i++ {
		k, visit := i%11, uint32(i/11)
		var v uint32
		switch {
		case k < 3:
			v = visit * uint32(k+3)
		case k < 6:
			v = period[int(visit)%len(period)] + uint32(k)
		case k == 6:
			v = 42
		default:
			if i%4 == 0 {
				x += 7
			} else {
				x = x*3 + uint32(i%6)
			}
			v = x
		}
		tr = append(tr, trace.Event{PC: uint32(0x40 + 4*k), Value: v})
	}
	return tr
}

// TestRunBatchChunksEqualRun: feeding a trace through RunBatch in
// chunks — predictor state carrying across calls — sums to exactly
// one Run over the whole trace, for plain predictors, wrapped ones
// and Scorers, at chunk sizes that do and do not divide the trace.
func TestRunBatchChunksEqualRun(t *testing.T) {
	tr := batchTrace(5000)
	mks := map[string]func() Predictor{
		"lvp":     func() Predictor { return NewLastValue(8) },
		"stride":  func() Predictor { return NewStride(8) },
		"fcm":     func() Predictor { return NewFCM(8, 10) },
		"dfcm":    func() Predictor { return NewDFCM(8, 10) },
		"delayed": func() Predictor { return NewDelayed(NewDFCM(8, 10), 32) },
		"perfect": func() Predictor { return NewPerfectHybrid(NewStride(8), NewFCM(8, 10)) },
		"tage":    func() Predictor { return NewTAGE(8, 6, 32, 4, 8, 4, 64) },
	}
	for name, mk := range mks {
		want := Run(mk(), tr)
		for _, chunk := range []int{1, 13, 512, len(tr), len(tr) + 1} {
			p := mk()
			var got Result
			for start := 0; start < len(tr); start += chunk {
				end := start + chunk
				if end > len(tr) {
					end = len(tr)
				}
				got.Add(RunBatch(p, tr[start:end]))
			}
			if got != want {
				t.Errorf("%s chunk %d: RunBatch sum %+v, Run %+v", name, chunk, got, want)
			}
		}
	}
}

// TestRunBatchEmpty: an empty batch is a no-op.
func TestRunBatchEmpty(t *testing.T) {
	if r := RunBatch(NewLastValue(4), nil); r != (Result{}) {
		t.Errorf("empty batch produced %+v", r)
	}
}

// runGenericBatch is the generic per-event loop, written out apart
// from Run and bypassing any BatchRunner dispatch — the reference the
// concrete-type loops must match bit for bit. It also returns each
// event's outcome, the reference for RunBatchHits masks.
func runGenericBatch(p Predictor, batch []trace.Event) (Result, []bool) {
	var res Result
	res.Predictions = uint64(len(batch))
	hits := make([]bool, len(batch))
	for i, e := range batch {
		if s, ok := p.(Scorer); ok {
			hits[i] = s.Score(e.PC, e.Value)
		} else {
			hits[i] = p.Predict(e.PC) == e.Value
			p.Update(e.PC, e.Value)
		}
		if hits[i] {
			res.Correct++
		}
	}
	return res, hits
}

// checkHitMask: mask carries exactly the reference outcomes in its
// first HitWords(len(want)) words, zero past the last event, and
// leaves the words after those alone.
func checkHitMask(t *testing.T, name string, start int, mask []uint64, want []bool) {
	t.Helper()
	words := HitWords(len(want))
	for i := 0; i < 64*words; i++ {
		got := mask[i>>6]>>(i&63)&1 == 1
		if exp := i < len(want) && want[i]; got != exp {
			t.Fatalf("%s: event %d: hit bit %v, want %v", name, start+i, got, exp)
		}
	}
	for w := words; w < len(mask); w++ {
		if mask[w] != ^uint64(0) {
			t.Fatalf("%s at %d: RunBatchHits wrote word %d past the batch", name, start, w)
		}
	}
}

// batchPanics and scorerBatchPanics are BatchRunners whose batch
// loops panic; every other method is the embedded predictor's.
type batchPanics struct{ *DFCM }

func (batchPanics) RunBatch([]trace.Event) Result { panic("Run dispatched to RunBatch") }
func (batchPanics) RunBatchHits([]trace.Event, []uint64) Result {
	panic("Run dispatched to RunBatchHits")
}

type scorerBatchPanics struct{ *PerfectHybrid }

func (scorerBatchPanics) RunBatch([]trace.Event) Result { panic("Run dispatched to RunBatch") }

// TestRunNeverDispatchesToBatchLoops: Run is the reference loop the
// concrete ones are checked against, so it must reach a predictor only
// through Score or Predict/Update, never through its batch loops, and
// must equal the independently written generic loop.
func TestRunNeverDispatchesToBatchLoops(t *testing.T) {
	tr := batchTrace(3000)
	for name, mk := range map[string]func() Predictor{
		"predict-update": func() Predictor { return batchPanics{NewDFCM(8, 10)} },
		"scorer": func() Predictor {
			return scorerBatchPanics{NewPerfectHybrid(NewStride(8), NewFCM(8, 10))}
		},
	} {
		p := mk()
		if _, ok := p.(BatchRunner); !ok {
			t.Fatalf("%s: test predictor is not a BatchRunner", name)
		}
		got := Run(p, tr)
		want, _ := runGenericBatch(mk(), tr)
		if got != want {
			t.Errorf("%s: Run %+v, generic loop %+v", name, got, want)
		}
		if got.Correct == 0 || got.Correct == got.Predictions {
			t.Errorf("%s: trace is degenerate for this predictor: %+v", name, got)
		}
	}
}

// TestRunBatchConcreteMatchesGeneric: every concrete RunBatch
// implementation produces, chunk by chunk, exactly the Result of the
// generic loop on an identical twin, and so does RunBatchHits on a
// third twin, whose mask bits must be the generic per-event outcomes.
// All three end in the same state, witnessed by the serialized
// snapshot where available and by post-run prediction parity
// everywhere. Chunk lengths include multiples and non-multiples of
// 64, and a whole-trace chunk longer than PerfectHybrid's sub-chunk.
func TestRunBatchConcreteMatchesGeneric(t *testing.T) {
	tr := batchTrace(6000)
	mks := map[string]func() Predictor{
		"lvp":      func() Predictor { return NewLastValue(8) },
		"stride":   func() Predictor { return NewStride(8) },
		"twodelta": func() Predictor { return NewTwoDelta(8) },
		"fcm":      func() Predictor { return NewFCM(8, 10) },
		// Narrow level-2 disables the FSR Update32 fast path, covering
		// the interface-hash loop variant.
		"fcm-small-l2":  func() Predictor { return NewFCM(8, 6) },
		"dfcm":          func() Predictor { return NewDFCM(8, 10) },
		"dfcm-w8":       func() Predictor { return NewDFCMWidth(8, 10, 8) },
		"dfcm-small-l2": func() Predictor { return NewDFCMWidth(8, 6, 32) },
		"lastn":         func() Predictor { return NewLastN(8, 4) },
		"delayed":       func() Predictor { return NewDelayed(NewDFCM(8, 10), 32) },
		"perfect":       func() Predictor { return NewPerfectHybrid(NewStride(8), NewFCM(8, 10)) },
		"perfect-3": func() Predictor {
			return NewPerfectHybrid(NewLastValue(8), NewStride(8), NewDFCMWidth(8, 6, 32))
		},
		// A nested hybrid component takes RunBatchHits' Scorer path.
		"perfect-nested": func() Predictor {
			return NewPerfectHybrid(NewPerfectHybrid(NewStride(8), NewLastValue(8)), NewDFCM(8, 10))
		},
		"meta":        func() Predictor { return NewMetaHybrid(NewStride(8), NewFCM(8, 10), 8) },
		"counterconf": func() Predictor { return NewCounterConfidence(NewDFCM(8, 10), 8, 15, 8) },
		"hashtag":     func() Predictor { return NewHashTag(NewDFCM(8, 10), 6, 7) },
		"combined": func() Predictor {
			d := NewDFCM(8, 10)
			return NewCombined(d, NewHashTag(d, 6, 7), NewCounterConfidence(d, 6, 15, 4))
		},
		"tage":         func() Predictor { return NewTAGE(8, 6, 32, 4, 8, 4, 64) },
		"tage-w8":      func() Predictor { return NewTAGE(8, 6, 8, 3, 10, 2, 32) },
		"tage-1table":  func() Predictor { return NewTAGE(8, 6, 32, 1, 8, 16, 16) },
		"tage-delayed": func() Predictor { return NewDelayed(NewTAGE(8, 6, 32, 4, 8, 4, 64), 32) },
	}
	// Wrappers and the related-work predictors have no concrete loop:
	// RunBatch takes them through Run.
	runsGeneric := map[string]bool{"lastn": true, "delayed": true, "meta": true,
		"counterconf": true, "hashtag": true, "combined": true, "tage-delayed": true}
	for name, mk := range mks {
		concrete, generic, hitsP := mk(), mk(), mk()
		if _, ok := concrete.(BatchRunner); ok == runsGeneric[name] {
			t.Errorf("%s: implements BatchRunner = %v, want %v", name, ok, !runsGeneric[name])
			continue
		}
		var total Result
		for _, chunk := range []int{1, 17, 64, 733, len(tr)} {
			for start := 0; start < len(tr); start += chunk {
				end := start + chunk
				if end > len(tr) {
					end = len(tr)
				}
				got := RunBatch(concrete, tr[start:end])
				want, wantHits := runGenericBatch(generic, tr[start:end])
				if got != want {
					t.Fatalf("%s chunk %d at %d: concrete %+v, generic %+v", name, chunk, start, got, want)
				}
				// One spare word, poisoned, to catch writes past the batch.
				mask := make([]uint64, HitWords(end-start)+1)
				for w := range mask {
					mask[w] = ^uint64(0)
				}
				if got := RunBatchHits(hitsP, tr[start:end], mask); got != want {
					t.Fatalf("%s chunk %d at %d: RunBatchHits %+v, generic %+v", name, chunk, start, got, want)
				}
				checkHitMask(t, name, start, mask, wantHits)
				total.Add(want)
			}
		}
		if total.Correct == 0 || total.Correct == total.Predictions {
			t.Errorf("%s: trace is degenerate for this predictor: %+v", name, total)
		}
		gs, gok := generic.(Snapshotter)
		if gok {
			for twin, p := range map[string]Predictor{"concrete": concrete, "hits": hitsP} {
				if string(p.(Snapshotter).AppendState(nil)) != string(gs.AppendState(nil)) {
					t.Errorf("%s: serialized state diverged between %s and generic loops", name, twin)
				}
			}
		}
		for _, e := range tr[:64] {
			want := generic.Predict(e.PC)
			if concrete.Predict(e.PC) != want || hitsP.Predict(e.PC) != want {
				t.Errorf("%s: post-run predictions diverged at pc %#x", name, e.PC)
				break
			}
		}
	}
	// Zero-value predictors take the concrete loops' empty-table
	// branch, which has no generic twin (Predict would index an empty
	// table): every event misses, and the mask contract still holds.
	for name, p := range map[string]Predictor{"stride-zero": &Stride{}, "fcm-zero": &FCM{}, "dfcm-zero": &DFCM{}} {
		for _, n := range []int{0, 1, 64, 733} {
			mask := make([]uint64, HitWords(n)+1)
			for w := range mask {
				mask[w] = ^uint64(0)
			}
			if got := RunBatchHits(p, tr[:n], mask); got != (Result{Predictions: uint64(n)}) {
				t.Fatalf("%s n=%d: RunBatchHits %+v, want %d misses", name, n, got, n)
			}
			checkHitMask(t, name, 0, mask, make([]bool, n))
			if got := RunBatch(p, tr[:n]); got != (Result{Predictions: uint64(n)}) {
				t.Fatalf("%s n=%d: RunBatch %+v, want %d misses", name, n, got, n)
			}
		}
	}
}

// TestRunBatchZeroAlloc: a warm predictor's concrete batch loop
// allocates nothing per call, for every predictor a root
// BenchmarkRunBatch* drives and on the same loop-body trace.
func TestRunBatchZeroAlloc(t *testing.T) {
	if leakcheck.RaceEnabled {
		t.Skip("race detector instrumentation allocates; zero-alloc budget holds in pure builds only")
	}
	events := workload.Interleave(workload.LoopBody(0x1000, 2, 6, 4, 2), 4096)
	for _, tc := range []struct {
		name string
		p    Predictor
	}{
		{"dfcm", NewDFCM(14, 12)},
		{"fcm", NewFCM(14, 12)},
		{"stride", NewStride(14)},
		{"tage", NewTAGE(14, 12, 32, 4, 8, 4, 64)},
		{"perfect-hybrid", NewPerfectHybrid(NewStride(14), NewFCM(14, 12))},
	} {
		var correct uint64
		if n := testing.AllocsPerRun(10, func() { correct += RunBatch(tc.p, events).Correct }); n != 0 {
			t.Errorf("%s: RunBatch %.1f allocs/call, want 0", tc.name, n)
		}
		if correct == 0 {
			t.Errorf("%s: no hits on the loop-body trace", tc.name)
		}
	}
}
