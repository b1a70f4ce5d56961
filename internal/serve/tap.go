package serve

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// Tap observes a mirror of the engine's training traffic — the hook
// the online autotuner (internal/autotune) hangs its shadow
// evaluation on. Mirror is invoked on the shard goroutine for every
// UpdateBatch and RunBatch, after the session's predictor has been
// trained with the events and strictly before the reply is released
// back to the caller (the caller owns the events storage and may
// reuse it the moment the reply arrives).
//
// Contract: Mirror must not block — the serving hot path runs it
// inline — and must not retain events past the call; an
// implementation that wants the data copies it into storage it owns
// and sheds when its own queue is full. seq is the session's lifetime
// update count before this batch, a deterministic per-session
// position that sampling decisions can key on.
type Tap interface {
	Mirror(session, seq uint64, events []trace.Event)
}

// SetTap installs (or, with nil, removes) the engine's traffic tap.
// Install the tap before traffic that should be observed; the swap
// itself is atomic and safe against concurrent traffic, which simply
// sees the old value until the store lands.
func (e *Engine) SetTap(t Tap) {
	if t == nil {
		e.tap.Store(nil)
		return
	}
	e.tap.Store(&t)
}

// mirror forwards one trained batch to the tap, if any. Runs on the
// shard goroutine; kept tiny so the no-tap configuration pays one
// atomic load per batch.
func (e *Engine) mirror(session, seq uint64, events []trace.Event) {
	if tp := e.tap.Load(); tp != nil {
		(*tp).Mirror(session, seq, events)
	}
}

// SwapSession atomically replaces a live session's predictor with p —
// the autotuner's promotion path, run as an internal op on the
// session's shard goroutine so it serializes with the session's
// traffic: every event is processed entirely by the old predictor or
// entirely by the new one, never split. Lifetime counters survive the
// swap (stats continuity); the windowed accuracy buckets reset, since
// they now measure a different predictor. spec must describe p: a
// checkpoint taken after the swap records it as the session's
// canonical spec, so a warm restart rebuilds the swapped
// configuration, not the engine default.
//
// A swap never creates a session (missing ones answer
// StatusBadRequest) and is shed like ordinary traffic when the shard
// mailbox is full (StatusBusy) — the tuner retries at a later
// evaluation instead of blocking.
func (e *Engine) SwapSession(sessionID uint64, spec core.Spec, p core.Predictor) Status {
	if p == nil || spec.Validate() != nil {
		return StatusBadRequest
	}
	return e.submit(request{op: opSwapSession, session: sessionID, newP: p, newSpec: spec}).status
}

// handleSwapSession installs the replacement predictor on the shard
// goroutine.
func (e *Engine) handleSwapSession(s *shard, req request) {
	sess, ok := s.sessions[req.session]
	if !ok {
		req.reply <- response{status: StatusBadRequest}
		return
	}
	sess.p = req.newP
	spec := req.newSpec.Canonical()
	sess.spec.Store(&spec)
	sess.swaps.Add(1)
	sess.winLookups.Store(0)
	sess.winHits.Store(0)
	sess.prevLookups.Store(0)
	sess.prevHits.Store(0)
	e.swaps.Add(1)
	req.reply <- response{status: StatusOK}
}
