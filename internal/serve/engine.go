package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Config parameterizes an Engine.
type Config struct {
	// Spec is the predictor configuration every session starts from
	// (required). A snapshot records it, so a restart, a migration or
	// cmd/vpstate can rebuild the exact predictor.
	Spec core.Spec
	// Shards is the number of independent shard goroutines. Sessions
	// are assigned to shards by hashing the session ID, so sessions on
	// different shards never contend. 0 selects GOMAXPROCS.
	Shards int
	// MailboxDepth bounds each shard's request queue. A full mailbox
	// is backpressure: the request is answered StatusBusy immediately
	// ("no prediction") instead of blocking the connection. 0 selects
	// 128.
	MailboxDepth int
	// MaxSessions caps live sessions across all shards; session
	// creation beyond the cap is answered StatusBusy. 0 selects 4096.
	MaxSessions int
	// CheckpointDir, when non-empty, enables durable session state:
	// every session is snapshot to one file in the directory
	// (session-<id>.vps) on graceful Close, and LoadCheckpoints
	// warm-starts from the same files on boot. The directory is
	// created if missing.
	CheckpointDir string
	// CheckpointInterval adds periodic background checkpoints between
	// the boot and drain ones. 0 disables the ticker (checkpoint on
	// drain only). Requires CheckpointDir.
	CheckpointInterval time.Duration
	// StatsWindow sizes the per-session windowed accuracy buckets, in
	// judged lookups (UpdateBatch/RunBatch events): a session's
	// windowed hit rate covers its last one-to-two windows of judged
	// traffic. 0 selects 4096.
	StatsWindow int
	// AdoptSnapshotSpecs lets LoadCheckpoints warm-start sessions
	// whose snapshot spec differs from the engine's: the session is
	// rebuilt under the snapshot's own spec, recorded as its
	// per-session override — how an autotuned server restores
	// hot-swapped sessions across a restart. When false (the default),
	// mismatched snapshots are skipped, preserving the invariant that
	// changed boot flags mean a deliberate cold start.
	AdoptSnapshotSpecs bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MailboxDepth <= 0 {
		c.MailboxDepth = 128
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.StatsWindow <= 0 {
		c.StatsWindow = 4096
	}
	return c
}

// Stats is an engine-level snapshot, served over the protocol's Stats
// op and as JSON on the optional HTTP listener.
type Stats struct {
	Predictor   string       `json:"predictor"`
	Shards      int          `json:"shards"`
	Sessions    int          `json:"sessions"`
	Predictions uint64       `json:"predictions"`
	Hits        uint64       `json:"hits"`
	HitRate     float64      `json:"hit_rate"`
	Updates     uint64       `json:"updates"`
	Resets      uint64       `json:"resets"`
	Dropped     uint64       `json:"dropped"` // requests shed by backpressure
	QueueDepth  int          `json:"queue_depth"`
	ShardStats  []ShardStats `json:"shard_stats"`

	// Checkpointing counters; all zero when CheckpointDir is unset.
	Checkpoints      uint64 `json:"checkpoints"`       // completed whole-engine sweeps
	CheckpointErrors uint64 `json:"checkpoint_errors"` // sessions that failed to persist
	Restored         uint64 `json:"restored_sessions"` // sessions warm-started from disk

	// Swaps counts predictor hot-swaps applied by SwapSession (the
	// autotuner's promotion path); zero on untuned engines.
	Swaps uint64 `json:"swaps"`

	// SessionStats lists every live session's accuracy counters,
	// sorted by session ID. Counters are read with relaxed ordering,
	// like the engine-level totals.
	SessionStats []SessionStat `json:"session_stats,omitempty"`
}

// SessionStat is the per-session slice of a Stats snapshot: lifetime
// hits/lookups since the session started (surviving checkpoint
// restores) plus a windowed view over the last one-to-two
// Config.StatsWindow's worth of judged lookups — the autotuner's
// scoring input and a per-client accuracy readout on its own. A
// "judged lookup" is one UpdateBatch or RunBatch event: the predictor
// was consulted and the prediction compared against the actual value.
type SessionStat struct {
	Session     uint64 `json:"session"`
	Predictions uint64 `json:"predictions"` // PredictBatch + RunBatch lookups
	Lookups     uint64 `json:"lookups"`     // judged lookups since start
	Hits        uint64 `json:"hits"`        // correct judged lookups since start
	HitRate     float64 `json:"hit_rate"`
	WindowLookups uint64  `json:"window_lookups"`
	WindowHits    uint64  `json:"window_hits"`
	WindowHitRate float64 `json:"window_hit_rate"`
	// Swaps counts this session's predictor hot-swaps; Spec is the
	// session's canonical predictor spec when it differs from the
	// engine's (after a swap or an adopted snapshot), nil otherwise.
	Swaps uint64     `json:"swaps,omitempty"`
	Spec  *core.Spec `json:"spec,omitempty"`
}

// ShardStats is the per-shard slice of a Stats snapshot.
type ShardStats struct {
	Sessions    int    `json:"sessions"` // occupancy
	Predictions uint64 `json:"predictions"`
	QueueDepth  int    `json:"queue_depth"`
}

// request is one unit of shard work. Exactly one of pcs/events is set
// for the batch ops; sess only for the internal restore op; reply is
// buffered so the shard never blocks on a departed caller.
type request struct {
	op      byte
	session uint64
	pcs     []uint32
	events  []trace.Event
	out     []uint32 // OpPredictBatch: caller-owned output storage to reuse
	sess    *session // opRestoreSession: pre-built session to install
	replace bool     // opRestoreSession: replace an existing live session
	newP    core.Predictor // opSwapSession: replacement predictor
	newSpec core.Spec      // opSwapSession: the spec that built newP
	reply   chan response
}

type response struct {
	status Status
	values []uint32
	hits   uint32
	blob   []byte           // OpSnapshotSession: encoded snapshot file
	snaps  []sessionCapture // opCaptureShard
}

// session is the per-client predictor state owned by one shard. The
// predictor itself is only ever touched on the shard goroutine; the
// counters are atomics because Stats reads them from outside (the
// shard stays the only writer, so the atomics are a publication
// mechanism, not a contention point). predictions/hits/updates are
// lifetime totals (they survive ResetSession); checkpoints persist
// them so a restored session resumes its stats where it left off.
//
// spec, when non-nil, is the canonical predictor spec that built p —
// set by SwapSession and by spec-adopting warm starts, read by
// checkpoints and stats. nil means the engine's Config.Spec.
//
// The win/prev pairs are the windowed-accuracy buckets: judged
// lookups land in win, which rotates into prev every
// Config.StatsWindow lookups, so the windowed hit rate always covers
// the last one-to-two windows of judged traffic.
type session struct {
	p    core.Predictor
	spec atomic.Pointer[core.Spec]

	predictions atomic.Uint64
	hits        atomic.Uint64
	updates     atomic.Uint64
	swaps       atomic.Uint64

	winLookups  atomic.Uint64
	winHits     atomic.Uint64
	prevLookups atomic.Uint64
	prevHits    atomic.Uint64
}

// judged credits n judged lookups (hits of them correct) to the
// session's lifetime and windowed counters, rotating the window
// bucket when it fills. Runs on the shard goroutine (single writer).
func (s *session) judged(n, hits, window uint64) {
	s.updates.Add(n)
	s.hits.Add(hits)
	s.winHits.Add(hits)
	if s.winLookups.Add(n) >= window {
		s.prevLookups.Store(s.winLookups.Load())
		s.prevHits.Store(s.winHits.Load())
		s.winLookups.Store(0)
		s.winHits.Store(0)
	}
}

// stat renders the session's counters as one Stats entry.
func (s *session) stat(id uint64) SessionStat {
	st := SessionStat{
		Session:       id,
		Predictions:   s.predictions.Load(),
		Lookups:       s.updates.Load(),
		Hits:          s.hits.Load(),
		WindowLookups: s.prevLookups.Load() + s.winLookups.Load(),
		WindowHits:    s.prevHits.Load() + s.winHits.Load(),
		Swaps:         s.swaps.Load(),
		Spec:          s.spec.Load(),
	}
	if st.Lookups > 0 {
		st.HitRate = float64(st.Hits) / float64(st.Lookups)
	}
	if st.WindowLookups > 0 {
		st.WindowHitRate = float64(st.WindowHits) / float64(st.WindowLookups)
	}
	return st
}

// shard owns a disjoint set of sessions and processes their requests
// sequentially on its own goroutine, so predictor state needs no
// locks. Counters are atomics because Snapshot reads them from
// outside the goroutine.
type shard struct {
	mail     chan request
	sessions map[uint64]*session

	predictions atomic.Uint64
	hits        atomic.Uint64
	updates     atomic.Uint64
	resets      atomic.Uint64
	occupancy   atomic.Int64
}

// Engine is the sharded session store at the heart of the service.
// All exported methods are safe for concurrent use.
type Engine struct {
	cfg      Config
	name     string // predictor config name, for stats
	window   uint64 // Config.StatsWindow, precomputed for the hot path
	shards   []*shard
	sessions atomic.Int64 // live sessions across shards
	dropped  atomic.Uint64
	swaps    atomic.Uint64
	tap      atomic.Pointer[Tap] // traffic mirror hook; nil when untapped

	// newPredictor builds a fresh cfg.Spec predictor per session. It
	// is a field, not a Spec.New call, only so tests in this package
	// can install an instrumented predictor before the first request.
	newPredictor func() core.Predictor

	// byID indexes every live session for stats reads; the owning
	// shard remains the only goroutine touching a session's predictor.
	sessMu sync.RWMutex
	byID   map[uint64]*session // vplint:guardedby sessMu

	checkpoints      atomic.Uint64
	checkpointErrors atomic.Uint64
	restored         atomic.Uint64
	ckptQuit         chan struct{} // nil unless the ticker loop runs
	ckptWG           sync.WaitGroup

	mu     sync.RWMutex
	closed bool // vplint:guardedby mu
	quit   chan struct{}
	wg     sync.WaitGroup
}

// NewEngine starts cfg.Shards shard goroutines and returns the
// engine. Callers must Close it to stop them.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("serve: spec: %w", err)
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
		}
	}
	newPredictor := func() core.Predictor {
		p, err := cfg.Spec.New()
		if err != nil {
			panic("serve: spec validated at engine start cannot fail: " + err.Error())
		}
		return p
	}
	e := &Engine{
		cfg:          cfg,
		name:         newPredictor().Name(),
		newPredictor: newPredictor,
		window:       uint64(cfg.StatsWindow),
		shards:       make([]*shard, cfg.Shards),
		byID:         make(map[uint64]*session),
		quit:         make(chan struct{}),
	}
	for i := range e.shards {
		s := &shard{
			mail:     make(chan request, cfg.MailboxDepth),
			sessions: make(map[uint64]*session),
		}
		e.shards[i] = s
		e.wg.Add(1)
		go e.run(s)
	}
	if cfg.CheckpointDir != "" && cfg.CheckpointInterval > 0 {
		e.ckptQuit = make(chan struct{})
		e.ckptWG.Add(1)
		go e.checkpointLoop(cfg.CheckpointInterval)
	}
	return e, nil
}

// shardFor assigns a session to a shard with a splitmix64 finalizer,
// so adjacent session IDs (the common client choice) spread evenly.
func (e *Engine) shardFor(session uint64) *shard {
	x := session + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return e.shards[x%uint64(len(e.shards))]
}

// run is one shard's goroutine: process mail until quit, then drain
// whatever is still queued so no caller is left waiting.
func (e *Engine) run(s *shard) {
	defer e.wg.Done()
	for {
		select {
		case req := <-s.mail:
			e.handle(s, req)
		case <-e.quit:
			for {
				select {
				case req := <-s.mail:
					e.handle(s, req)
				default:
					return
				}
			}
		}
	}
}

// getSession returns the session, creating it if the cap allows.
// Runs on the shard goroutine.
func (e *Engine) getSession(s *shard, id uint64) *session {
	if sess, ok := s.sessions[id]; ok {
		return sess
	}
	if int(e.sessions.Load()) >= e.cfg.MaxSessions {
		return nil
	}
	sess := &session{p: e.newPredictor()}
	s.sessions[id] = sess
	e.sessMu.Lock()
	e.byID[id] = sess
	e.sessMu.Unlock()
	e.sessions.Add(1)
	s.occupancy.Add(1)
	return sess
}

// handle executes one request on the shard goroutine.
func (e *Engine) handle(s *shard, req request) {
	switch req.op {
	// The checkpoint ops run before getSession: none of them may
	// implicitly create a session.
	case opCaptureShard:
		e.handleCaptureShard(s, req)
		return
	case opRestoreSession:
		e.handleRestoreSession(s, req)
		return
	case OpSnapshotSession:
		e.handleSnapshotSession(s, req)
		return
	case opSwapSession:
		e.handleSwapSession(s, req)
		return
	}
	sess := e.getSession(s, req.session)
	if sess == nil {
		req.reply <- response{status: StatusBusy}
		return
	}
	switch req.op {
	case OpPredictBatch:
		// The shard writes into the caller-owned req.out storage (the
		// caller blocks on the reply until the write completes, so
		// ownership hands back with the response); only a first-time or
		// growing batch allocates.
		values := req.out
		if cap(values) >= len(req.pcs) {
			values = values[:len(req.pcs)]
		} else {
			values = make([]uint32, len(req.pcs))
		}
		for i, pc := range req.pcs {
			values[i] = sess.p.Predict(pc)
		}
		sess.predictions.Add(uint64(len(req.pcs)))
		s.predictions.Add(uint64(len(req.pcs)))
		req.reply <- response{status: StatusOK, values: values}
	case OpUpdateBatch:
		// UpdateBatch hits are judged by Predict even for Scorers (the
		// any-component-correct Score rule belongs to RunBatch), so only
		// non-Scorers can take the concrete-type core.RunBatch loop —
		// for them it is exactly predict-compare-update.
		seq := sess.updates.Load()
		var hits uint64
		if _, ok := sess.p.(core.Scorer); ok {
			for _, ev := range req.events {
				if sess.p.Predict(ev.PC) == ev.Value {
					hits++
				}
				sess.p.Update(ev.PC, ev.Value)
			}
		} else {
			hits = core.RunBatch(sess.p, req.events).Correct
		}
		sess.judged(uint64(len(req.events)), hits, e.window)
		s.hits.Add(hits)
		s.updates.Add(uint64(len(req.events)))
		// The mirror must run before the reply: the reply hands the
		// events storage back to the caller, which may overwrite it.
		e.mirror(req.session, seq, req.events)
		req.reply <- response{status: StatusOK}
	case OpRunBatch:
		// core.RunBatch mirrors core.Run exactly (Scorer fast path,
		// concrete-type batch loops), so a served replay stays
		// bit-equivalent to cmd/vpredict on the same spec while paying
		// one interface dispatch per batch instead of two per event.
		seq := sess.updates.Load()
		hits := uint32(core.RunBatch(sess.p, req.events).Correct)
		sess.predictions.Add(uint64(len(req.events)))
		sess.judged(uint64(len(req.events)), uint64(hits), e.window)
		s.predictions.Add(uint64(len(req.events)))
		s.hits.Add(uint64(hits))
		s.updates.Add(uint64(len(req.events)))
		e.mirror(req.session, seq, req.events)
		req.reply <- response{status: StatusOK, hits: hits}
	case OpResetSession:
		// A swapped session resets within its own (swapped) spec: the
		// override is the session's canonical configuration now.
		if !core.TryReset(sess.p) {
			if ov := sess.spec.Load(); ov != nil {
				p, err := ov.New()
				if err == nil {
					sess.p = p
				} else {
					sess.p = e.newPredictor()
					sess.spec.Store(nil)
				}
			} else {
				sess.p = e.newPredictor()
			}
		}
		s.resets.Add(1)
		req.reply <- response{status: StatusOK}
	default:
		req.reply <- response{status: StatusBadRequest}
	}
}

// handleSnapshotSession serializes one live session on its shard
// goroutine. Missing sessions are StatusBadRequest (a snapshot never
// creates a session); a predictor that cannot export its state answers
// StatusUnsupported.
func (e *Engine) handleSnapshotSession(s *shard, req request) {
	sess, ok := s.sessions[req.session]
	if !ok {
		req.reply <- response{status: StatusBadRequest}
		return
	}
	snap, err := e.captureSession(req.session, sess)
	if err != nil {
		req.reply <- response{status: StatusUnsupported}
		return
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		req.reply <- response{status: StatusBadRequest}
		return
	}
	req.reply <- response{status: StatusOK, blob: buf.Bytes()}
}

// replyPool recycles the one-shot reply channels submit allocates.
// Pooling is sound because every request placed in a mailbox receives
// exactly one reply — handle answers every path and run drains the
// mailbox on quit — and a request that never entered a mailbox never
// had anything sent on its channel, so a pooled channel is always
// empty when it is put back.
var replyPool = sync.Pool{New: func() any { return make(chan response, 1) }}

// submit routes a request to its shard with backpressure: a full
// mailbox degrades to StatusBusy instead of blocking. The read lock
// is held until the reply arrives, which lets Close wait for every
// in-flight request before stopping the shards.
func (e *Engine) submit(req request) response {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return response{status: StatusClosed}
	}
	s := e.shardFor(req.session)
	reply := replyPool.Get().(chan response)
	req.reply = reply
	select {
	case s.mail <- req:
		resp := <-reply
		replyPool.Put(reply)
		return resp
	default:
		replyPool.Put(reply)
		e.dropped.Add(1)
		return response{status: StatusBusy}
	}
}

// PredictBatch returns the session predictor's predictions for pcs,
// in order, against the table state at batch start.
func (e *Engine) PredictBatch(sessionID uint64, pcs []uint32) ([]uint32, Status) {
	return e.PredictBatchAppend(sessionID, pcs, nil)
}

// PredictBatchAppend is PredictBatch writing the predictions into
// out's backing storage when its capacity suffices (allocating a
// larger slice otherwise); the returned slice replaces the caller's
// scratch. The shard goroutine writes the caller-owned storage while
// the caller blocks on the reply, so ownership hands back exactly at
// return; the caller must not reuse out until then.
func (e *Engine) PredictBatchAppend(sessionID uint64, pcs []uint32, out []uint32) ([]uint32, Status) {
	r := e.submit(request{op: OpPredictBatch, session: sessionID, pcs: pcs, out: out})
	return r.values, r.status
}

// UpdateBatch trains the session predictor with the outcomes, in
// order.
func (e *Engine) UpdateBatch(sessionID uint64, events []trace.Event) Status {
	return e.submit(request{op: OpUpdateBatch, session: sessionID, events: events}).status
}

// RunBatch performs predict-compare-update per event, in order, and
// returns the number of correct predictions.
func (e *Engine) RunBatch(sessionID uint64, events []trace.Event) (hits uint32, st Status) {
	r := e.submit(request{op: OpRunBatch, session: sessionID, events: events})
	return r.hits, r.status
}

// ResetSession clears the session's learned state in place (the
// session stays allocated). Resetting an untouched session creates
// it.
func (e *Engine) ResetSession(sessionID uint64) Status {
	return e.submit(request{op: OpResetSession, session: sessionID}).status
}

// SnapshotSession returns the session's encoded snapshot file (the
// internal/snapshot format): spec, lifetime counters and complete
// predictor state, captured atomically on the owning shard.
// StatusBadRequest if the session does not exist, StatusUnsupported if
// its predictor cannot export state.
func (e *Engine) SnapshotSession(sessionID uint64) ([]byte, Status) {
	r := e.submit(request{op: OpSnapshotSession, session: sessionID})
	return r.blob, r.status
}

// RestoreSession installs a session from its encoded snapshot blob —
// the bytes SnapshotSession returned, possibly on another engine,
// which is how the cluster tier migrates a live session between
// backends. The snapshot's canonical spec must match the engine's
// (StatusSpecMismatch otherwise) and its meta session ID, when
// nonzero, must match sessionID. A restore is authoritative: an
// existing live session is replaced, which makes a re-driven
// migration idempotent. Decode and state validation run on the
// caller's goroutine; only the install itself visits the shard.
// StatusBadRequest on undecodable or semantically invalid bytes.
func (e *Engine) RestoreSession(sessionID uint64, blob []byte) Status {
	snap, err := snapshot.Decode(bytes.NewReader(blob))
	if err != nil {
		return StatusBadRequest
	}
	if snap.Spec.Canonical() != e.cfg.Spec.Canonical() {
		return StatusSpecMismatch
	}
	if snap.Meta.Session != 0 && snap.Meta.Session != sessionID {
		return StatusBadRequest
	}
	p, err := snap.Restore()
	if err != nil {
		return StatusBadRequest
	}
	sess := newRestoredSession(p, snap.Meta, nil)
	return e.submit(request{op: opRestoreSession, session: sessionID, sess: sess, replace: true}).status
}

// Snapshot collects the engine-level stats. Counters are read with
// relaxed ordering — a snapshot taken during traffic is approximate
// by nature.
func (e *Engine) Snapshot() Stats {
	st := Stats{
		Predictor:        e.name,
		Shards:           len(e.shards),
		Sessions:         int(e.sessions.Load()),
		Dropped:          e.dropped.Load(),
		Checkpoints:      e.checkpoints.Load(),
		CheckpointErrors: e.checkpointErrors.Load(),
		Restored:         e.restored.Load(),
		Swaps:            e.swaps.Load(),
		ShardStats:       make([]ShardStats, len(e.shards)),
	}
	e.sessMu.RLock()
	st.SessionStats = make([]SessionStat, 0, len(e.byID))
	for id, sess := range e.byID {
		st.SessionStats = append(st.SessionStats, sess.stat(id))
	}
	e.sessMu.RUnlock()
	sort.Slice(st.SessionStats, func(i, j int) bool {
		return st.SessionStats[i].Session < st.SessionStats[j].Session
	})
	for i, s := range e.shards {
		ss := ShardStats{
			Sessions:    int(s.occupancy.Load()),
			Predictions: s.predictions.Load(),
			QueueDepth:  len(s.mail),
		}
		st.ShardStats[i] = ss
		st.Predictions += ss.Predictions
		st.Hits += s.hits.Load()
		st.Updates += s.updates.Load()
		st.Resets += s.resets.Load()
		st.QueueDepth += ss.QueueDepth
	}
	if st.Predictions > 0 {
		st.HitRate = float64(st.Hits) / float64(st.Predictions)
	}
	return st
}

// StatsJSON renders a snapshot as JSON (expvar-style; also the Stats
// op's response body).
func (e *Engine) StatsJSON() []byte {
	b, err := json.Marshal(e.Snapshot())
	if err != nil {
		// Stats contains only marshalable fields; keep the protocol
		// alive even if that ever changes.
		return []byte(`{"error":"stats marshal failed"}`)
	}
	return b
}

// Close drains in-flight requests, takes the final checkpoint when
// checkpointing is configured, and stops the shard goroutines.
// Requests arriving after Close are answered StatusClosed. Close is
// idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	// Acquiring the write lock above waited out every in-flight submit
	// (each holds the read lock until its reply), so the shards are now
	// idle but still running — exactly the window for the drain
	// checkpoint.
	if e.cfg.CheckpointDir != "" {
		if e.ckptQuit != nil {
			close(e.ckptQuit)
			e.ckptWG.Wait()
		}
		// A failed drain checkpoint is counted in CheckpointErrors;
		// shutdown proceeds — it must not wedge the process exit.
		_, _ = e.CheckpointAll()
	}
	close(e.quit)
	e.wg.Wait()
}
