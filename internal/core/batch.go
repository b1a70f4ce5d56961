package core

import "repro/internal/trace"

// Concrete-type batch loops. The generic RunBatch pays two interface
// dispatches per event (Predict, Update) that the compiler cannot
// devirtualize or inline; the methods here run the same per-event
// logic on the concrete receiver, so table indexing, branchless
// saturation and the FSR hash update all inline into one straight-line
// loop body. The top-level RunBatch dispatches here once per chunk via
// the BatchRunner interface. Semantics are bit-identical to the
// generic loop — pinned by TestRunBatchConcreteMatchesGeneric — so
// chunked replays (internal/engine) and served batches
// (internal/serve) stay equivalent to the sequential reference.

// RunBatch implements BatchRunner. The int-typed mask derived from
// len(t) (here and in the loops below) lets the compiler prove
// i <= len−1 and drop the bounds checks; the len-0 guard that makes
// the proof sound is dead code (constructors allocate ≥ 1 entry).
func (p *LastValue) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	t := p.table
	if len(t) == 0 {
		return res
	}
	mask := len(t) - 1
	for _, e := range batch {
		i := int(e.PC>>2) & mask
		res.Correct += uint64(hit01(t[i], e.Value))
		t[i] = e.Value
	}
	return res
}

// RunBatch implements BatchRunner.
func (p *Stride) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	t := p.table
	if len(t) == 0 {
		return res
	}
	mask := len(t) - 1
	for i := range batch {
		e := &batch[i]
		ent := &t[int(e.PC>>2)&mask]
		hit := hit01(ent.last+ent.stride, e.Value)
		res.Correct += uint64(hit)
		c := int32(ent.conf)
		replMask := uint32((c - strideConfMax) >> 31)
		ent.conf = uint8(satConf(c, hit, strideConfIncrement, strideConfDecrement, strideConfMax))
		ent.stride ^= (ent.stride ^ (e.Value - ent.last)) & replMask
		ent.last = e.Value
	}
	return res
}

// RunBatch implements BatchRunner.
func (p *TwoDelta) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	t := p.table
	if len(t) == 0 {
		return res
	}
	mask := len(t) - 1
	for i := range batch {
		e := &batch[i]
		ent := &t[int(e.PC>>2)&mask]
		res.Correct += uint64(hit01(ent.last+ent.s1, e.Value))
		stride := e.Value - ent.last
		// s1 takes the new stride only when it repeats (s2 match).
		m := uint32(-hit01(stride, ent.s2))
		ent.s1 ^= (ent.s1 ^ stride) & m
		ent.s2 = stride
		ent.last = e.Value
	}
	return res
}

// RunBatch implements BatchRunner. The FSR fast path is hoisted out of
// the loop: one nil check per chunk, then the inlined Update32 per
// event.
func (p *FCM) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	l1, l2 := p.l1, p.l2
	if len(l1) == 0 {
		return res
	}
	mask := len(l1) - 1
	if fsr := p.fsr; fsr != nil {
		for _, e := range batch {
			i := int(e.PC>>2) & mask
			h := l1[i]
			res.Correct += uint64(hit01(l2[h], e.Value))
			l2[h] = e.Value
			l1[i] = fsr.Update32(h, e.Value)
		}
		return res
	}
	for _, e := range batch {
		i := int(e.PC>>2) & mask
		h := l1[i]
		res.Correct += uint64(hit01(l2[h], e.Value))
		l2[h] = e.Value
		l1[i] = p.h.Update(h, uint64(e.Value))
	}
	return res
}

// RunBatch implements BatchRunner. Level-1 is read as two flat SoA
// streams (last, hist); predict, truncate and sign-extension are all
// mask/shift arithmetic, so the loop body is branch-free on the FSR
// path.
func (p *DFCM) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	last, hist, l2 := p.last, p.hist, p.l2
	if len(last) == 0 || len(hist) != len(last) {
		return res
	}
	mask := len(last) - 1
	sMask, eShift := p.strideMask, p.extShift
	if fsr := p.fsr; fsr != nil {
		for _, e := range batch {
			i := int(e.PC>>2) & mask
			h := hist[i]
			lv := last[i]
			pred := lv + uint32(int32(l2[h]<<eShift)>>eShift)
			res.Correct += uint64(hit01(pred, e.Value))
			stride := e.Value - lv
			l2[h] = stride & sMask
			hist[i] = fsr.Update32(h, stride)
			last[i] = e.Value
		}
		return res
	}
	for _, e := range batch {
		i := int(e.PC>>2) & mask
		h := hist[i]
		lv := last[i]
		pred := lv + uint32(int32(l2[h]<<eShift)>>eShift)
		res.Correct += uint64(hit01(pred, e.Value))
		stride := e.Value - lv
		l2[h] = stride & sMask
		hist[i] = p.h.Update(h, uint64(stride))
		last[i] = e.Value
	}
	return res
}

// RunBatch implements BatchRunner. One table lookup per event serves
// both the hit check and the training, where Predict then Update would
// scan the tagged tables twice; the lookup lives on the stack, so the
// loop allocates nothing.
func (p *TAGE) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	var l tageLookup
	for i := range batch {
		e := &batch[i]
		p.lookup(e.PC>>2, &l)
		res.Correct += uint64(hit01(p.last[l.bi]+l.stride, e.Value))
		p.train(e.Value, &l)
	}
	return res
}

// RunBatch implements BatchRunner. The slot scans stay as loops (n is
// tiny and data-dependent); the win is the devirtualized per-event
// calls.
func (p *LastN) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	for i := range batch {
		e := &batch[i]
		if p.Predict(e.PC) == e.Value {
			res.Correct++
		}
		p.Update(e.PC, e.Value)
	}
	return res
}

// RunBatch implements BatchRunner. The queue drain inside Predict and
// the enqueue inside Update run on the concrete receiver; the wrapped
// predictor is still reached through its interface (the delay model
// is not a hot-path predictor).
func (d *Delayed) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	for i := range batch {
		e := &batch[i]
		if d.Predict(e.PC) == e.Value {
			res.Correct++
		}
		d.Update(e.PC, e.Value)
	}
	return res
}

// RunBatch implements BatchRunner with Score semantics: an event is
// correct when any component predicted it, matching the generic
// Scorer path exactly.
func (p *PerfectHybrid) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	for i := range batch {
		e := &batch[i]
		if p.Score(e.PC, e.Value) {
			res.Correct++
		}
	}
	return res
}

// RunBatch implements BatchRunner.
func (p *MetaHybrid) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	for i := range batch {
		e := &batch[i]
		if p.Predict(e.PC) == e.Value {
			res.Correct++
		}
		p.Update(e.PC, e.Value)
	}
	return res
}

// RunBatch implements BatchRunner (counts raw accuracy, like the
// generic loop; confidence splits remain RunConfident's job).
func (c *CounterConfidence) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	for i := range batch {
		e := &batch[i]
		if c.Predict(e.PC) == e.Value {
			res.Correct++
		}
		c.Update(e.PC, e.Value)
	}
	return res
}

// RunBatch implements BatchRunner (raw accuracy; see CounterConfidence).
func (h *HashTag) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	for i := range batch {
		e := &batch[i]
		if h.Predict(e.PC) == e.Value {
			res.Correct++
		}
		h.Update(e.PC, e.Value)
	}
	return res
}

// RunBatch implements BatchRunner (raw accuracy; see CounterConfidence).
func (c *Combined) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	for i := range batch {
		e := &batch[i]
		if c.Predict(e.PC) == e.Value {
			res.Correct++
		}
		c.Update(e.PC, e.Value)
	}
	return res
}
