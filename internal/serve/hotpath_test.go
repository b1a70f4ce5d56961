package serve

import (
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
)

// TestConnScratchAliasingUnderConcurrency: the per-connection reuse of
// frame/decode/response buffers must never leak bytes between
// connections. Eight connections stream interleaved PredictBatch,
// RunBatch and UpdateBatch frames of varying sizes against distinct
// sessions while each checks every response against its own local
// replica — a scratch buffer shared across connections (or recycled
// while a response was still being written) corrupts a response body
// and fails the value comparison, and the race detector catches the
// unsynchronized write. Run with -race; leakcheck verifies the
// connection goroutines drain.
func TestConnScratchAliasingUnderConcurrency(t *testing.T) {
	leakcheck.Check(t)
	_, addr := startServer(t, Config{Shards: 4}, ServerConfig{})

	const conns = 8
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			session := uint64(k + 1)
			events := testEvents(uint32(0x1000*(k+1)), 4000)
			replica, _ := testSpec.New()
			var pcs, want, got []uint32
			// Vary the chunk size per connection so frames of different
			// lengths interleave on the server — exactly the traffic
			// shape that exposes a scratch buffer sized for one
			// connection being served to another.
			chunk := 64 << (k % 4)
			for start := 0; start < len(events); start += chunk {
				end := min(start+chunk, len(events))
				batch := events[start:end]
				pcs = pcs[:0]
				want = want[:0]
				for _, e := range batch {
					pcs = append(pcs, e.PC)
					want = append(want, replica.Predict(e.PC))
				}
				values, st, err := c.PredictBatchAppend(session, pcs, got)
				if err != nil || st != StatusOK {
					errs <- err
					return
				}
				got = values
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("conn %d batch at %d: prediction %d is %#x, replica says %#x",
							k, start, i, got[i], want[i])
						return
					}
				}
				if st, err := c.UpdateBatch(session, batch); err != nil || st != StatusOK {
					errs <- err
					return
				}
				for _, e := range batch {
					replica.Update(e.PC, e.Value)
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeSteadyStateZeroAlloc: the acceptance budget — once a
// connection's scratch buffers and the session are warm, a
// PredictBatch or RunBatch frame allocates nothing at any layer:
// frame decode, engine round trip, batch loop, response encode.
// dispatch is driven directly (no socket) so the measurement isolates
// the serving hot path from kernel I/O.
func TestServeSteadyStateZeroAlloc(t *testing.T) {
	if leakcheck.RaceEnabled {
		t.Skip("race detector instrumentation allocates; zero-alloc budget holds in pure builds only")
	}
	e, err := NewEngine(Config{Spec: testSpec, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := NewServer(e, ServerConfig{})

	events := testEvents(0x1000, 512)
	pcs := make([]uint32, len(events))
	for i, ev := range events {
		pcs[i] = ev.PC
	}
	predictReq := encodePredictReq(7, pcs)
	runReq := encodeEventReq(7, events)
	sc := &connScratch{}

	// Warm: create the session, size every scratch buffer.
	sc.resp = s.dispatch(OpPredictBatch, predictReq, sc)
	sc.resp = s.dispatch(OpRunBatch, runReq, sc)

	if n := testing.AllocsPerRun(100, func() {
		sc.resp = s.dispatch(OpPredictBatch, predictReq, sc)
	}); n != 0 {
		t.Errorf("steady-state PredictBatch frame: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sc.resp = s.dispatch(OpRunBatch, runReq, sc)
	}); n != 0 {
		t.Errorf("steady-state RunBatch frame: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sc.resp = s.dispatch(OpUpdateBatch, runReq, sc)
	}); n != 0 {
		t.Errorf("steady-state UpdateBatch frame: %.1f allocs/op, want 0", n)
	}
}

// TestEngineBatchZeroAlloc: the engine API alone (no frame codec) is
// also allocation-free at steady state, for callers embedding the
// engine directly.
func TestEngineBatchZeroAlloc(t *testing.T) {
	if leakcheck.RaceEnabled {
		t.Skip("race detector instrumentation allocates; zero-alloc budget holds in pure builds only")
	}
	e, err := NewEngine(Config{Spec: testSpec, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	events := testEvents(0x2000, 512)
	pcs := make([]uint32, len(events))
	for i, ev := range events {
		pcs[i] = ev.PC
	}
	out, st := e.PredictBatchAppend(9, pcs, nil)
	if st != StatusOK {
		t.Fatalf("warmup predict: %v", st)
	}
	if _, st := e.RunBatch(9, events); st != StatusOK {
		t.Fatalf("warmup run: %v", st)
	}

	if n := testing.AllocsPerRun(100, func() {
		out, _ = e.PredictBatchAppend(9, pcs, out)
	}); n != 0 {
		t.Errorf("steady-state PredictBatchAppend: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_, _ = e.RunBatch(9, events)
	}); n != 0 {
		t.Errorf("steady-state Engine.RunBatch: %.1f allocs/op, want 0", n)
	}
}

// TestPredictBatchAppendReuses: the Into/Append decoding paths reuse
// caller storage when capacity suffices and preserve values exactly.
func TestPredictBatchAppendReuses(t *testing.T) {
	e, err := NewEngine(Config{Spec: testSpec, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	pcs := []uint32{0x1000, 0x1004, 0x1008}
	first, st := e.PredictBatchAppend(3, pcs, nil)
	if st != StatusOK || len(first) != len(pcs) {
		t.Fatalf("first call: %v, %d values", st, len(first))
	}
	second, st := e.PredictBatchAppend(3, pcs, first)
	if st != StatusOK {
		t.Fatalf("second call: %v", st)
	}
	if &first[0] != &second[0] {
		t.Error("PredictBatchAppend did not reuse caller storage with sufficient capacity")
	}
	baseline, _ := e.PredictBatch(3, pcs)
	for i := range baseline {
		if second[i] != baseline[i] {
			t.Errorf("value %d: append path %#x, allocating path %#x", i, second[i], baseline[i])
		}
	}
}

// TestRunBatchScorerParityServed: OpRunBatch through core.RunBatch
// must preserve Scorer semantics (any-component-correct), and
// OpUpdateBatch must keep judging Scorers by Predict — the two ops
// score differently by design.
func TestRunBatchScorerParityServed(t *testing.T) {
	mk := func() core.Predictor { return core.NewPerfectHybrid(core.NewStride(8), core.NewFCM(8, 10)) }
	e, err := NewEngine(Config{Spec: core.Spec{Kind: "hybrid", L1: 8, L2: 10}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	events := testEvents(0x3000, 2000)
	hits, st := e.RunBatch(5, events)
	if st != StatusOK {
		t.Fatalf("RunBatch: %v", st)
	}
	want := core.Run(mk(), events)
	if uint64(hits) != want.Correct {
		t.Errorf("served Scorer replay: %d hits, offline %d", hits, want.Correct)
	}
}

// --- benchmarks: serving hot path ---
//
// Dispatch-level: the full frame path (decode -> engine round trip ->
// concrete batch loop -> encode) without kernel I/O. allocs/op is the
// acceptance budget, held at zero for every batch op by
// TestServeSteadyStateZeroAlloc. ns/op is per frame of benchServeBatch
// events.

const benchServeBatch = 2048

func benchDispatch(b *testing.B, op byte, payload []byte) {
	b.Helper()
	e, err := NewEngine(Config{Spec: testSpec, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	s := NewServer(e, ServerConfig{})
	sc := &connScratch{}
	sc.resp = s.dispatch(op, payload, sc) // warm session + scratch
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.resp = s.dispatch(op, payload, sc)
	}
}

func BenchmarkServeDispatchRunBatch(b *testing.B) {
	benchDispatch(b, OpRunBatch, encodeEventReq(1, testEvents(0x1000, benchServeBatch)))
}

func BenchmarkServeDispatchPredictBatch(b *testing.B) {
	events := testEvents(0x1000, benchServeBatch)
	pcs := make([]uint32, len(events))
	for i, ev := range events {
		pcs[i] = ev.PC
	}
	benchDispatch(b, OpPredictBatch, encodePredictReq(1, pcs))
}

// Wire-level: the same path over a real loopback socket and client,
// measuring served round-trip throughput end to end. allocs/op counts
// the client side too (request encode + response decode), which the
// reusable client buffers also hold at zero steady-state.
func BenchmarkServeWireRunBatch(b *testing.B) {
	e, err := NewEngine(Config{Spec: testSpec, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(e, ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln)
		close(done)
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	events := testEvents(0x1000, benchServeBatch)
	if _, st, err := c.RunBatch(1, events); err != nil || st != StatusOK {
		b.Fatalf("warmup: %v %v", st, err)
	}
	b.SetBytes(int64(len(events) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st, err := c.RunBatch(1, events); err != nil || st != StatusOK {
			b.Fatalf("RunBatch: %v %v", st, err)
		}
	}
}
