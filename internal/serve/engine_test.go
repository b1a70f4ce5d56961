package serve

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testSpec is the predictor configuration the engine tests run — the
// paper's DFCM at small table sizes.
var testSpec = core.Spec{Kind: "dfcm", L1: 10, L2: 10}

// testEvents generates a deterministic mixed workload trace: shifting
// the seed PC keeps distinct sessions' traces distinct.
func testEvents(basePC uint32, n int) trace.Trace {
	body := workload.LoopBody(basePC, 2, 6, 4, 2)
	return workload.Interleave(body, (n+13)/14)[:n]
}

// offlineHits is the ground truth: the hit count of an offline run
// over the same spec.
func offlineHits(t *testing.T, events trace.Trace) uint64 {
	t.Helper()
	p, err := testSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	return core.Run(p, events).Correct
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Spec == (core.Spec{}) {
		cfg.Spec = testSpec
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// runThroughEngine replays events through one session in batches of
// batch, returning the total hit count.
func runThroughEngine(t *testing.T, e *Engine, session uint64, events trace.Trace, batch int) uint64 {
	t.Helper()
	var hits uint64
	for start := 0; start < len(events); start += batch {
		end := min(start+batch, len(events))
		h, st := e.RunBatch(session, events[start:end])
		if st != StatusOK {
			t.Fatalf("RunBatch: status %v", st)
		}
		hits += uint64(h)
	}
	return hits
}

func TestRunBatchMatchesOffline(t *testing.T) {
	events := testEvents(0x1000, 5000)
	want := offlineHits(t, events)
	for _, batch := range []int{1, 7, 64, 5000} {
		e := newTestEngine(t, Config{Shards: 4})
		if got := runThroughEngine(t, e, 1, events, batch); got != want {
			t.Errorf("batch=%d: %d hits, offline %d", batch, got, want)
		}
	}
}

func TestRunBatchScorerPath(t *testing.T) {
	// The perfect hybrid judges correctness through Score; the engine
	// must follow core.Run and use it.
	spec := core.Spec{Kind: "hybrid", L1: 10, L2: 10}
	events := testEvents(0x2000, 3000)
	offline, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Run(offline, events).Correct

	e := newTestEngine(t, Config{Spec: spec, Shards: 2})
	if got := runThroughEngine(t, e, 5, events, 128); got != want {
		t.Errorf("hybrid via engine: %d hits, offline %d", got, want)
	}
}

func TestSplitPredictUpdateMatchesOffline(t *testing.T) {
	// With batch size 1 the split PredictBatch/UpdateBatch path is
	// sequentially consistent with the offline loop.
	events := testEvents(0x3000, 2000)
	want := offlineHits(t, events)
	e := newTestEngine(t, Config{Shards: 2})
	var hits uint64
	for _, ev := range events {
		values, st := e.PredictBatch(9, []uint32{ev.PC})
		if st != StatusOK || len(values) != 1 {
			t.Fatalf("PredictBatch: status %v, %d values", st, len(values))
		}
		if values[0] == ev.Value {
			hits++
		}
		if st := e.UpdateBatch(9, events[:0]); st != StatusOK {
			t.Fatalf("empty UpdateBatch: status %v", st)
		}
		if st := e.UpdateBatch(9, []trace.Event{ev}); st != StatusOK {
			t.Fatalf("UpdateBatch: status %v", st)
		}
	}
	if hits != want {
		t.Errorf("split replay: %d hits, offline %d", hits, want)
	}
}

func TestSessionIsolation(t *testing.T) {
	// Interleaved sessions must behave exactly like separate offline
	// runs: no predictor state leaks between sessions.
	a, b := testEvents(0x1000, 3000), testEvents(0x9000, 3000)
	wantA, wantB := offlineHits(t, a), offlineHits(t, b)
	e := newTestEngine(t, Config{Shards: 3})
	var hitsA, hitsB uint64
	for start := 0; start < 3000; start += 50 {
		ha, st := e.RunBatch(100, a[start:start+50])
		if st != StatusOK {
			t.Fatal(st)
		}
		hb, st := e.RunBatch(200, b[start:start+50])
		if st != StatusOK {
			t.Fatal(st)
		}
		hitsA += uint64(ha)
		hitsB += uint64(hb)
	}
	if hitsA != wantA || hitsB != wantB {
		t.Errorf("interleaved sessions: A=%d (want %d), B=%d (want %d)",
			hitsA, wantA, hitsB, wantB)
	}
}

func TestResetSessionMatchesFresh(t *testing.T) {
	events := testEvents(0x4000, 2000)
	want := offlineHits(t, events)
	e := newTestEngine(t, Config{Shards: 2})
	first := runThroughEngine(t, e, 7, events, 100)
	if st := e.ResetSession(7); st != StatusOK {
		t.Fatalf("ResetSession: %v", st)
	}
	second := runThroughEngine(t, e, 7, events, 100)
	if first != want || second != want {
		t.Errorf("replays around reset: %d then %d, offline %d", first, second, want)
	}
	if got := e.Snapshot().Resets; got != 1 {
		t.Errorf("snapshot resets = %d, want 1", got)
	}
}

func TestConcurrentSessions(t *testing.T) {
	// Many goroutines stream distinct sessions concurrently; each
	// session's result must equal its offline run. Run under -race
	// this is the engine's core isolation property.
	const goroutines = 16
	e := newTestEngine(t, Config{Shards: 4, MailboxDepth: 256})
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			events := testEvents(uint32(0x1000+0x800*g), 2000)
			p, err := testSpec.New()
			if err != nil {
				errs <- err.Error()
				return
			}
			want := core.Run(p, events).Correct
			var hits uint64
			for start := 0; start < len(events); start += 100 {
				for {
					h, st := e.RunBatch(uint64(g), events[start:start+100])
					if st == StatusBusy {
						continue // backpressure: retry
					}
					if st != StatusOK {
						errs <- st.String()
						return
					}
					hits += uint64(h)
					break
				}
			}
			if hits != want {
				errs <- "session hit mismatch"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// gatedPredictor blocks inside Predict until released, letting the
// backpressure test fill a shard's mailbox deterministically.
type gatedPredictor struct {
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedPredictor) Predict(pc uint32) uint32 {
	g.entered <- struct{}{}
	<-g.gate
	return 0
}
func (g *gatedPredictor) Update(pc, value uint32) {}
func (g *gatedPredictor) Name() string            { return "gated" }
func (g *gatedPredictor) SizeBits() int64         { return 0 }

func TestBackpressureShedsInsteadOfBlocking(t *testing.T) {
	gp := &gatedPredictor{entered: make(chan struct{}), gate: make(chan struct{})}
	e := newTestEngine(t, Config{Shards: 1, MailboxDepth: 1})
	e.newPredictor = func() core.Predictor { return gp } // before any session exists
	one := trace.Trace{{PC: 4, Value: 0}}

	results := make(chan Status, 2)
	go func() { _, st := e.RunBatch(1, one); results <- st }()
	<-gp.entered // first request is now executing on the shard
	go func() { _, st := e.RunBatch(1, one); results <- st }()
	// Wait for the second request to occupy the single mailbox slot.
	for len(e.shards[0].mail) != 1 {
		time.Sleep(time.Millisecond)
	}

	// Third request finds the mailbox full: shed, not blocked.
	if _, st := e.RunBatch(1, one); st != StatusBusy {
		t.Fatalf("overflow request: status %v, want busy", st)
	}
	if got := e.Snapshot().Dropped; got != 1 {
		t.Errorf("snapshot dropped = %d, want 1", got)
	}

	gp.gate <- struct{}{} // release first
	<-gp.entered          // second starts
	gp.gate <- struct{}{} // release second
	for i := 0; i < 2; i++ {
		if st := <-results; st != StatusOK {
			t.Errorf("queued request %d: status %v", i, st)
		}
	}
}

func TestMaxSessionsCap(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1, MaxSessions: 2})
	one := trace.Trace{{PC: 4, Value: 0}}
	for id := uint64(1); id <= 2; id++ {
		if _, st := e.RunBatch(id, one); st != StatusOK {
			t.Fatalf("session %d: %v", id, st)
		}
	}
	if _, st := e.RunBatch(3, one); st != StatusBusy {
		t.Errorf("session over cap: status %v, want busy", st)
	}
	if got := e.Snapshot().Sessions; got != 2 {
		t.Errorf("snapshot sessions = %d, want 2", got)
	}
}

func TestClosedEngineRejects(t *testing.T) {
	e, err := NewEngine(Config{Spec: testSpec, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, st := e.RunBatch(1, trace.Trace{{PC: 4, Value: 0}}); st != StatusClosed {
		t.Errorf("post-close request: status %v, want closed", st)
	}
}

func TestEngineRequiresFactory(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("NewEngine without a predictor spec must fail")
	}
	if _, err := NewEngine(Config{Spec: core.Spec{Kind: "dfcm", L1: 10}}); err == nil {
		t.Error("NewEngine with an invalid predictor spec must fail")
	}
}

func TestSnapshotCounters(t *testing.T) {
	events := testEvents(0x5000, 1400)
	e := newTestEngine(t, Config{Shards: 2})
	runThroughEngine(t, e, 1, events, 200)
	pcs := make([]uint32, 10)
	if _, st := e.PredictBatch(2, pcs); st != StatusOK {
		t.Fatal(st)
	}
	st := e.Snapshot()
	if st.Predictor != "dfcm-2^10/2^10" {
		t.Errorf("predictor name %q", st.Predictor)
	}
	if st.Predictions != 1410 {
		t.Errorf("predictions = %d, want 1410", st.Predictions)
	}
	if st.Updates != 1400 {
		t.Errorf("updates = %d, want 1400", st.Updates)
	}
	if st.Sessions != 2 {
		t.Errorf("sessions = %d, want 2", st.Sessions)
	}
	if st.Hits == 0 || st.HitRate <= 0 {
		t.Errorf("hits = %d, hit rate = %v", st.Hits, st.HitRate)
	}
	if len(st.ShardStats) != 2 {
		t.Fatalf("shard stats: %d entries", len(st.ShardStats))
	}
	occupied := 0
	for _, ss := range st.ShardStats {
		occupied += ss.Sessions
	}
	if occupied != 2 {
		t.Errorf("shard occupancy sums to %d, want 2", occupied)
	}
}
