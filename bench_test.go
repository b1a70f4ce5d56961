package repro

// Figure benchmarks: three engine-backed experiments run end to end
// (trace generation is cached after the first iteration, so steady-
// state iterations measure the predictor sweeps). CI runs them one
// iteration under the race detector, so a racy sweep fails even if it
// produces correct output. TestEngineEquivalence checks the output of
// every experiment, and perfbench (BENCHMARK.json) times regeneration
// from a cold cache; the CLI (cmd/dfcmsim) runs the experiments at
// full budgets.

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/progs"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/workload"
)

var benchCfg = experiments.Config{Budget: 120_000}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

func BenchmarkFig6(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10a(b *testing.B) { runExperiment(b, "fig10a") }

// --- microbenchmarks: predictor update throughput ---
//
// Each op is one Predict+Update round trip — the per-event cost of
// the serving hot path through the Predictor interface — over
// loopTrace, a mixed loop body of constants, strides, repeating
// contexts and noise.

// benchSink keeps the Predict result observable so the compiler
// cannot treat the call as dead code and elide it.
var benchSink uint64

// loopTrace is the 4096-event trace every microbenchmark replays.
func loopTrace() trace.Trace {
	return trace.Collect(workload.Interleave(workload.LoopBody(0x1000, 2, 6, 4, 2), 4096), 0)
}

func benchPredictor(b *testing.B, p core.Predictor) {
	b.Helper()
	events := loopTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := events[i%len(events)]
		if p.Predict(e.PC) == e.Value {
			benchSink++
		}
		p.Update(e.PC, e.Value)
	}
}

func BenchmarkPredictLastValue(b *testing.B) { benchPredictor(b, core.NewLastValue(14)) }
func BenchmarkPredictStride(b *testing.B)    { benchPredictor(b, core.NewStride(14)) }
func BenchmarkPredictTwoDelta(b *testing.B)  { benchPredictor(b, core.NewTwoDelta(14)) }
func BenchmarkPredictFCM(b *testing.B)       { benchPredictor(b, core.NewFCM(14, 12)) }
func BenchmarkPredictDFCM(b *testing.B)      { benchPredictor(b, core.NewDFCM(14, 12)) }
func BenchmarkPredictTAGE(b *testing.B) {
	benchPredictor(b, core.NewTAGE(14, 12, 32, 4, 8, 4, 64))
}
func BenchmarkPredictDFCMDelayed(b *testing.B) {
	benchPredictor(b, core.NewDelayed(core.NewDFCM(14, 12), 64))
}
func BenchmarkPredictMetaHybrid(b *testing.B) {
	benchPredictor(b, core.NewMetaHybrid(core.NewStride(14), core.NewDFCM(14, 12), 14))
}
func BenchmarkPredictPerfectHybrid(b *testing.B) {
	p := core.NewPerfectHybrid(core.NewStride(14), core.NewFCM(14, 12))
	events := loopTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := events[i%len(events)]
		p.Score(e.PC, e.Value)
	}
}

// benchRunBatch measures the chunked hot path the engine and the
// serving tier actually run: one core.RunBatch call per chunk,
// dispatched once to the predictor's concrete-type loop. ns/op is per
// event, directly comparable to the BenchmarkPredict* per-event
// numbers above; the gap between the two is the per-event interface
// dispatch the batch path eliminates. internal/core's
// TestRunBatchZeroAlloc holds every predictor here at zero allocations
// per batch.
func benchRunBatch(b *testing.B, p core.Predictor) {
	b.Helper()
	events := loopTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(events) {
		n := len(events)
		if rem := b.N - i; rem < n {
			n = rem
		}
		res := core.RunBatch(p, events[:n])
		benchSink += res.Correct
	}
}

func BenchmarkRunBatchDFCM(b *testing.B)   { benchRunBatch(b, core.NewDFCM(14, 12)) }
func BenchmarkRunBatchFCM(b *testing.B)    { benchRunBatch(b, core.NewFCM(14, 12)) }
func BenchmarkRunBatchStride(b *testing.B) { benchRunBatch(b, core.NewStride(14)) }
func BenchmarkRunBatchTAGE(b *testing.B) {
	benchRunBatch(b, core.NewTAGE(14, 12, 32, 4, 8, 4, 64))
}
func BenchmarkRunBatchPerfectHybrid(b *testing.B) {
	benchRunBatch(b, core.NewPerfectHybrid(core.NewStride(14), core.NewFCM(14, 12)))
}

// --- microbenchmarks: snapshot encode/decode ---
//
// The checkpoint cost model for internal/serve: Encode is what a
// shard pays per session per checkpoint sweep (capture + container
// encoding into a reused buffer), Decode is the warm-start cost per
// session file. Both run against a warmed serving-sized DFCM so the
// numbers reflect real table occupancy, and report allocs/op — the
// encode path should stay at a handful of allocations regardless of
// table size.

// warmedDFCMSnapshot trains a serving-sized DFCM and returns its spec,
// the predictor, and its encoded snapshot bytes.
func warmedDFCMSnapshot(b *testing.B) (core.Spec, core.Predictor, []byte) {
	b.Helper()
	spec := core.Spec{Kind: "dfcm", L1: 14, L2: 12}
	p, err := spec.New()
	if err != nil {
		b.Fatal(err)
	}
	core.Run(p, trace.NewReader(loopTrace()))
	snap, err := snapshot.Capture(spec, p, snapshot.Meta{Session: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	return spec, p, buf.Bytes()
}

func BenchmarkSnapshotEncodeDFCM(b *testing.B) {
	spec, p, encoded := warmedDFCMSnapshot(b)
	var buf bytes.Buffer
	buf.Grow(len(encoded))
	b.SetBytes(int64(len(encoded)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		snap, err := snapshot.Capture(spec, p, snapshot.Meta{Session: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := snap.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		benchSink += uint64(buf.Len())
	}
}

func BenchmarkSnapshotDecodeDFCM(b *testing.B) {
	_, _, encoded := warmedDFCMSnapshot(b)
	b.SetBytes(int64(len(encoded)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := snapshot.Decode(bytes.NewReader(encoded))
		if err != nil {
			b.Fatal(err)
		}
		p, err := snap.Restore()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += uint64(p.SizeBits())
	}
}

// --- microbenchmark: table reset ---
//
// Reset is what a serving session pays when it is recycled: a warm
// serving-sized DFCM cleared back to its power-on state.

func BenchmarkResetDFCM(b *testing.B) {
	p := core.NewDFCM(14, 12)
	core.Run(p, trace.NewReader(loopTrace()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
	}
}

// --- microbenchmark: simulator throughput ---

func BenchmarkSimulator(b *testing.B) {
	b.ReportAllocs()
	var executed uint64
	for i := 0; i < b.N; i++ {
		tr, err := progs.TraceFor("li", 100_000)
		if err != nil {
			b.Fatal(err)
		}
		executed += uint64(len(tr))
	}
	b.ReportMetric(float64(executed)/float64(b.N), "events/run")
}
