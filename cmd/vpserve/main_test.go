package main

import (
	"context"
	"encoding/json"
	"flag"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/serve"
	"repro/internal/trace"
)

func optionsFromArgs(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("vpserve", flag.ContinueOnError)
	o := parseFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewServerRejectsBadSpec(t *testing.T) {
	for _, args := range [][]string{
		{"-spec", "oracle:4"},
		{"-spec", "dfcm:60:12"},
		{"-spec", "dfcm:16:12:99"},
		{"-spec", ""},
	} {
		if _, _, err := newServer(optionsFromArgs(t, args...)); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestSpecFlagMatchesOldFlags maps the per-field flags -spec replaced
// (-predictor/-l1/-l2/-width/-delay/-tables/-tag/-hmin/-hmax, shown
// here as the spec they built, unset flags at their old defaults) to
// the -spec string that builds a canonically equal spec. Canonical
// equality is what checkpoint warm start compares, so a checkpoint
// directory written under the old flags still warm-starts.
func TestSpecFlagMatchesOldFlags(t *testing.T) {
	cases := []struct {
		old  core.Spec // what the old flags built
		args []string  // the equivalent -spec, if any
	}{
		// No flags at all: the old defaults were -predictor dfcm -l1 16
		// -l2 12 -width 32.
		{core.Spec{Kind: "dfcm", L1: 16, L2: 12, Width: 32}, nil},
		{core.Spec{Kind: "dfcm", L1: 16, L2: 12, Width: 32}, []string{"-spec", "dfcm:16:12"}},
		// -predictor dfcm -l1 10 -l2 10
		{core.Spec{Kind: "dfcm", L1: 10, L2: 10, Width: 32}, []string{"-spec", "dfcm:10:10"}},
		// -predictor dfcm -l1 16 -l2 12 -width 8 -delay 64
		{core.Spec{Kind: "dfcm", L1: 16, L2: 12, Width: 8, Delay: 64}, []string{"-spec", "dfcm:16:12:8:64"}},
		// -predictor dfcm -l1 16 -l2 12 -delay 1024
		{core.Spec{Kind: "dfcm", L1: 16, L2: 12, Width: 32, Delay: 1024}, []string{"-spec", "dfcm:16:12:32:1024"}},
		// -predictor stride -l1 14 (l2 and width defaults ignored)
		{core.Spec{Kind: "stride", L1: 14, L2: 12, Width: 32}, []string{"-spec", "stride:14"}},
		// -predictor hybrid -l1 14 -l2 12
		{core.Spec{Kind: "hybrid", L1: 14, L2: 12, Width: 32}, []string{"-spec", "hybrid:14:12"}},
		// -predictor tage -l1 13 -l2 10 (default geometry)
		{core.Spec{Kind: "tage", L1: 13, L2: 10, Width: 32}, []string{"-spec", "tage:13:10"}},
		// -predictor tage -l1 13 -l2 10 -tables 4 -tag 8 -hmin 4 -hmax 64
		{core.Spec{Kind: "tage", L1: 13, L2: 10, Width: 32, Tables: 4, Tag: 8, HistMin: 4, HistMax: 64},
			[]string{"-spec", "tage:13:10:32:0:4:8:4:64"}},
		// -predictor tage -l1 10 -l2 8 -width 16 -delay 2 -tables 6 -tag 10 -hmin 2 -hmax 96
		{core.Spec{Kind: "tage", L1: 10, L2: 8, Width: 16, Delay: 2, Tables: 6, Tag: 10, HistMin: 2, HistMax: 96},
			[]string{"-spec", "tage:10:8:16:2:6:10:2:96"}},
	}
	for _, c := range cases {
		o := optionsFromArgs(t, c.args...)
		got, err := core.ParseSpec(o.spec)
		if err != nil {
			t.Errorf("args %v: %v", c.args, err)
			continue
		}
		if got.Canonical() != c.old.Canonical() {
			t.Errorf("args %v: canonical %+v, old flags built %+v", c.args, got.Canonical(), c.old.Canonical())
		}
	}
}

// TestOldDefaultCheckpointWarmStarts: a checkpoint directory written by
// an engine on the old default flags' spec (-predictor dfcm -l1 16
// -l2 12 -width 32) warm-starts a server booted on the default -spec.
func TestOldDefaultCheckpointWarmStarts(t *testing.T) {
	dir := t.TempDir()
	old, err := serve.NewEngine(serve.Config{
		Spec: core.Spec{Kind: "dfcm", L1: 16, L2: 12, Width: 32}, Shards: 1, CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, st := old.RunBatch(7, restartEvents(300)); st != serve.StatusOK {
		t.Fatalf("RunBatch: %v", st)
	}
	old.Close() // drain checkpoint

	_, srv, _, shutdown := bootServer(t, "-checkpoint-dir", dir, "-checkpoint-interval", "0")
	defer shutdown()
	if st := srv.Engine().Snapshot(); st.Restored != 1 || st.Predictions != 300 {
		t.Errorf("default -spec restored %d sessions with %d predictions, want 1 with 300", st.Restored, st.Predictions)
	}
}

// TestParseCandidates: the -autotune-candidates list trims whitespace
// around entries and rejects empty entries; each entry is a -spec.
func TestParseCandidates(t *testing.T) {
	got, err := parseCandidates("dfcm:12:10, dfcm:14:12:16 ,stride:14,lvp:8,dfcm:10:8:32:4,tage:10:8,tage:10:8:32:0:6:10:2:96")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Spec{
		{Kind: "dfcm", L1: 12, L2: 10},
		{Kind: "dfcm", L1: 14, L2: 12, Width: 16},
		{Kind: "stride", L1: 14},
		{Kind: "lvp", L1: 8},
		{Kind: "dfcm", L1: 10, L2: 8, Width: 32, Delay: 4},
		{Kind: "tage", L1: 10, L2: 8},
		{Kind: "tage", L1: 10, L2: 8, Width: 32, Tables: 6, Tag: 10, HistMin: 2, HistMax: 96},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d specs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("spec %d: %#v, want %#v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"", " ", "dfcm:12:10,", ",dfcm:12:10", "dfcm:12:10,,stride:8", "dfcm:12:10,nope:4"} {
		if _, err := parseCandidates(bad); err == nil {
			t.Errorf("parseCandidates(%q) accepted", bad)
		}
	}
}

func TestServerBootAndServe(t *testing.T) {
	o := optionsFromArgs(t, "-spec", "dfcm:10:10", "-shards", "2")
	srv, tuner, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	if tuner != nil {
		t.Fatal("tuner built without -autotune-candidates")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hits, st, err := c.RunBatch(1, trace.Trace{{PC: 0x40, Value: 0}, {PC: 0x40, Value: 0}})
	if err != nil || st != serve.StatusOK {
		t.Fatalf("RunBatch: %v %v", st, err)
	}
	if hits != 2 { // zero-initialized DFCM predicts 0 for the zero history
		t.Errorf("hits = %d, want 2", hits)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Predictor != "dfcm-2^10/2^10" || stats.Shards != 2 {
		t.Errorf("stats: %+v", stats)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c.Close()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// bootServer builds a server from flags and serves it on a loopback
// listener; the returned shutdown func drains it gracefully (closing
// the tuner first and taking the drain checkpoint when either is
// configured). The returned server and tuner let tests reach the
// engine and tuner status directly.
func bootServer(t *testing.T, args ...string) (addr string, srv *serve.Server, tuner *autotune.Tuner, shutdown func()) {
	t.Helper()
	srv, tuner, err := newServer(optionsFromArgs(t, args...))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln)
		close(done)
	}()
	return ln.Addr().String(), srv, tuner, func() {
		if tuner != nil {
			tuner.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	}
}

// restartEvents is a deterministic mixed trace: constant, stride and a
// pseudo-random low-entropy stream.
func restartEvents(n int) trace.Trace {
	tr := make(trace.Trace, 0, n)
	rnd := uint32(88172645)
	for i := 0; len(tr) < n; i++ {
		tr = append(tr,
			trace.Event{PC: 0x400, Value: 3},
			trace.Event{PC: 0x404, Value: uint32(i) * 24},
		)
		rnd ^= rnd << 13
		rnd ^= rnd >> 17
		rnd ^= rnd << 5
		tr = append(tr, trace.Event{PC: 0x408, Value: rnd & 0x3f})
	}
	return tr[:n]
}

// TestCheckpointRestart is the end-to-end durability smoke: boot with
// -checkpoint-dir, warm a session over the wire, drain (which
// checkpoints), boot a second server over the same directory, and the
// warm-started session must carry its stats forward and score the rest
// of the trace exactly like an uninterrupted offline run — no
// cold-start accuracy loss across the restart.
func TestCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-spec", "dfcm:8:10", "-shards", "2",
		"-checkpoint-dir", dir, "-checkpoint-interval", "0"}
	events := restartEvents(4000)
	const cut = 2600
	const sessionID = 42

	addr, _, _, shutdown := bootServer(t, args...)
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	warmHits, st, err := c.RunBatch(sessionID, events[:cut])
	if err != nil || st != serve.StatusOK {
		t.Fatalf("warm RunBatch: %v %v", st, err)
	}
	c.Close()
	shutdown() // drain checkpoint

	addr, _, _, shutdown = bootServer(t, args...)
	defer shutdown()
	c, err = serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Stats continuity: the rebooted server already reports the
	// pre-restart session and its lifetime counters.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 1 || stats.Restored != 1 {
		t.Fatalf("rebooted server reports %d sessions (%d restored)", stats.Sessions, stats.Restored)
	}
	if stats.Predictions != cut || stats.Hits != uint64(warmHits) {
		t.Fatalf("stats discontinuity: %d predictions / %d hits, drained with %d / %d",
			stats.Predictions, stats.Hits, cut, warmHits)
	}

	// Accuracy equivalence: replay the tail and compare against one
	// uninterrupted offline run of the same spec.
	gotHits, st, err := c.RunBatch(sessionID, events[cut:])
	if err != nil || st != serve.StatusOK {
		t.Fatalf("post-restart RunBatch: %v %v", st, err)
	}
	spec := core.Spec{Kind: "dfcm", L1: 8, L2: 10}
	p, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	wantWarm := uint32(0)
	for _, ev := range events[:cut] {
		if p.Predict(ev.PC) == ev.Value {
			wantWarm++
		}
		p.Update(ev.PC, ev.Value)
	}
	wantTail := uint32(0)
	for _, ev := range events[cut:] {
		if p.Predict(ev.PC) == ev.Value {
			wantTail++
		}
		p.Update(ev.PC, ev.Value)
	}
	if warmHits != wantWarm {
		t.Errorf("warm phase: served %d hits, offline %d", warmHits, wantWarm)
	}
	if gotHits != wantTail {
		t.Errorf("post-restart tail: served %d hits, offline run scores %d — restart lost accuracy", gotHits, wantTail)
	}
}

// TestAutotuneSwapSmoke is the end-to-end autotuning smoke (CI runs it
// under -race): boot with -autotune-candidates, a candidate set whose best
// member beats the boot spec on the driven workload, stream traffic
// over the wire, and require at least one hot-swap, a live /autotune
// admin endpoint, and a clean drain with no leaked goroutines.
func TestAutotuneSwapSmoke(t *testing.T) {
	leakcheck.Check(t)
	// Boot a last-value predictor against a strided workload it can
	// never predict; the DFCM candidate wins decisively. The tage
	// candidate (full colon geometry: width:delay:tables:tag:hmin:hmax)
	// rides along to prove the tagged kind is shadow-scorable.
	addr, srv, tuner, shutdown := bootServer(t,
		"-spec", "lvp:4", "-shards", "2",
		"-autotune-candidates", "dfcm:8:8,stride:8,tage:8:6:32:0:4:8:4:32",
		"-autotune-window", "128")
	defer shutdown()
	if tuner == nil {
		t.Fatal("-autotune-candidates built no tuner")
	}

	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events := make(trace.Trace, 12000)
	v := uint32(5)
	for i := range events {
		events[i] = trace.Event{PC: 0x700, Value: v}
		v += 9
	}
	const sessionID = 17
	for start := 0; start < len(events); start += 200 {
		if _, st, err := c.RunBatch(sessionID, events[start:start+200]); err != nil || st != serve.StatusOK {
			t.Fatalf("RunBatch at %d: %v %v", start, st, err)
		}
	}
	tuner.Sync()

	ts := tuner.Status()
	if ts.Swaps < 1 {
		t.Fatalf("no swap after %d mirrored events (status %+v)", ts.MirroredEvents, ts)
	}
	// The tage candidate must be score-eligible: present in the
	// session's shadow set with judged lookups and a nonzero size (so
	// both objectives can rank it), even if it did not win this race.
	tageScored := false
	for _, ss := range ts.PerSession {
		for _, sh := range ss.Shadows {
			if sh.Spec.Kind == "tage" && sh.WindowLookups > 0 && sh.SizeBits > 0 {
				tageScored = true
			}
		}
	}
	if !tageScored {
		t.Fatalf("tage candidate never became score-eligible: %+v", ts.PerSession)
	}
	// The engine agrees, through the wire stats op.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Swaps != ts.Swaps {
		t.Errorf("engine reports %d swaps, tuner %d", stats.Swaps, ts.Swaps)
	}
	var swapped *serve.SessionStat
	for i := range stats.SessionStats {
		if stats.SessionStats[i].Session == sessionID {
			swapped = &stats.SessionStats[i]
		}
	}
	if swapped == nil || swapped.Swaps < 1 || swapped.Spec == nil {
		t.Fatalf("session stats show no swap: %+v", stats.SessionStats)
	}

	// The admin endpoint serves the tuner status as JSON.
	rec := httptest.NewRecorder()
	newStatsMux(srv, tuner).ServeHTTP(rec, httptest.NewRequest("GET", "/autotune", nil))
	if rec.Code != 200 {
		t.Fatalf("/autotune: HTTP %d", rec.Code)
	}
	var hs autotune.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &hs); err != nil {
		t.Fatalf("/autotune body: %v", err)
	}
	if hs.Swaps != ts.Swaps || hs.Sessions < 1 {
		t.Errorf("/autotune reports %+v, tuner says %+v", hs, ts)
	}
}

// TestAutotuneFlagValidation: a candidate list that does not parse,
// or a bad tuner option, must fail at boot, not at the first session.
func TestAutotuneFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-autotune-candidates", " "},
		{"-autotune-candidates", "dfcm:8:8,"},
		{"-autotune-candidates", "dfcm:99:10"},
		{"-autotune-candidates", "dfcm:8:8", "-autotune-objective", "speed"},
	} {
		if _, tn, err := newServer(optionsFromArgs(t, args...)); err == nil {
			tn.Close()
			t.Errorf("args %v accepted", args)
		}
	}
}
