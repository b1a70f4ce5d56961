package core

import (
	"math/bits"

	"repro/internal/trace"
)

// Concrete-type batch loops. The generic loop (Run) pays two interface
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

// clearHits zeroes the words of hits that RunBatchHits owns for an
// n-event batch, leaving any words after them alone; a nil hits (how
// RunBatch records none) is left alone too.
func clearHits(hits []uint64, n int) {
	if hits != nil {
		clear(hits[:HitWords(n)])
	}
}

// RunBatch implements BatchRunner.
func (p *Stride) RunBatch(batch []trace.Event) Result { return p.RunBatchHits(batch, nil) }

// RunBatchHits is RunBatch plus the per-event hit mask (see the
// top-level RunBatchHits); a nil hits records none, which is how
// RunBatch runs. Events run in 64-event blocks: a block's hits gather
// in one register word, counted (and stored) once per block. The
// FCM and DFCM loops below work the same way.
func (p *Stride) RunBatchHits(batch []trace.Event, hits []uint64) Result {
	res := Result{Predictions: uint64(len(batch))}
	t := p.table
	if len(t) == 0 {
		clearHits(hits, len(batch))
		return res
	}
	mask := len(t) - 1
	for w := 0; len(batch) > 0; w++ {
		blk := batch[:min(64, len(batch))]
		batch = batch[len(blk):]
		var m uint64
		for j := range blk {
			e := &blk[j]
			ent := &t[int(e.PC>>2)&mask]
			hit := hit01(ent.last+ent.stride, e.Value)
			m |= uint64(hit) << (j & 63)
			c := int32(ent.conf)
			replMask := uint32((c - strideConfMax) >> 31)
			ent.conf = uint8(satConf(c, hit, strideConfIncrement, strideConfDecrement, strideConfMax))
			ent.stride ^= (ent.stride ^ (e.Value - ent.last)) & replMask
			ent.last = e.Value
		}
		if hits != nil {
			hits[w] = m
		}
		res.Correct += uint64(bits.OnesCount64(m))
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

// RunBatch implements BatchRunner.
func (p *FCM) RunBatch(batch []trace.Event) Result { return p.RunBatchHits(batch, nil) }

// RunBatchHits is RunBatch plus the per-event hit mask, in 64-event
// blocks like Stride.RunBatchHits. The FSR fast path is hoisted out of
// the block loop body: one nil check per block, then the inlined
// Update32 per event.
func (p *FCM) RunBatchHits(batch []trace.Event, hits []uint64) Result {
	res := Result{Predictions: uint64(len(batch))}
	l1, l2 := p.l1, p.l2
	if len(l1) == 0 {
		clearHits(hits, len(batch))
		return res
	}
	mask := len(l1) - 1
	fsr := p.fsr
	for w := 0; len(batch) > 0; w++ {
		blk := batch[:min(64, len(batch))]
		batch = batch[len(blk):]
		var m uint64
		if fsr != nil {
			for j, e := range blk {
				i := int(e.PC>>2) & mask
				h := l1[i]
				m |= uint64(hit01(l2[h], e.Value)) << (j & 63)
				l2[h] = e.Value
				l1[i] = fsr.Update32(h, e.Value)
			}
		} else {
			for j, e := range blk {
				i := int(e.PC>>2) & mask
				h := l1[i]
				m |= uint64(hit01(l2[h], e.Value)) << (j & 63)
				l2[h] = e.Value
				l1[i] = p.h.Update(h, uint64(e.Value))
			}
		}
		if hits != nil {
			hits[w] = m
		}
		res.Correct += uint64(bits.OnesCount64(m))
	}
	return res
}

// RunBatch implements BatchRunner.
func (p *DFCM) RunBatch(batch []trace.Event) Result { return p.RunBatchHits(batch, nil) }

// RunBatchHits is RunBatch plus the per-event hit mask, in 64-event
// blocks like Stride.RunBatchHits. Level-1 is read as two flat SoA
// streams (last, hist); predict, truncate and sign-extension are all
// mask/shift arithmetic, so the loop body is branch-free on the FSR
// path.
func (p *DFCM) RunBatchHits(batch []trace.Event, hits []uint64) Result {
	res := Result{Predictions: uint64(len(batch))}
	last, hist, l2 := p.last, p.hist, p.l2
	if len(last) == 0 || len(hist) != len(last) {
		clearHits(hits, len(batch))
		return res
	}
	mask := len(last) - 1
	sMask, eShift := p.strideMask, p.extShift
	fsr := p.fsr
	for w := 0; len(batch) > 0; w++ {
		blk := batch[:min(64, len(batch))]
		batch = batch[len(blk):]
		var m uint64
		if fsr != nil {
			for j, e := range blk {
				i := int(e.PC>>2) & mask
				h := hist[i]
				lv := last[i]
				pred := lv + uint32(int32(l2[h]<<eShift)>>eShift)
				m |= uint64(hit01(pred, e.Value)) << (j & 63)
				stride := e.Value - lv
				l2[h] = stride & sMask
				hist[i] = fsr.Update32(h, stride)
				last[i] = e.Value
			}
		} else {
			for j, e := range blk {
				i := int(e.PC>>2) & mask
				h := hist[i]
				lv := last[i]
				pred := lv + uint32(int32(l2[h]<<eShift)>>eShift)
				m |= uint64(hit01(pred, e.Value)) << (j & 63)
				stride := e.Value - lv
				l2[h] = stride & sMask
				hist[i] = p.h.Update(h, uint64(stride))
				last[i] = e.Value
			}
		}
		if hits != nil {
			hits[w] = m
		}
		res.Correct += uint64(bits.OnesCount64(m))
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

// hybridWords is the mask size PerfectHybrid.RunBatch works in: a
// sub-chunk of at most 64*hybridWords events.
const hybridWords = 64

// RunBatch implements BatchRunner with Score semantics: an event is
// correct when any component predicted it. Components are independent
// (none reads another's state), so each runs its own batch loop over a
// sub-chunk through RunBatchHits and the hybrid counts the OR of their
// hit masks — the same hits and the same final state as Score per
// event, with one dispatch per component per sub-chunk instead of two
// per component per event. Both masks live on the stack.
func (p *PerfectHybrid) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	var acc, m [hybridWords]uint64
	for len(batch) > 0 {
		sub := batch[:min(64*hybridWords, len(batch))]
		batch = batch[len(sub):]
		words := HitWords(len(sub))
		RunBatchHits(p.comps[0], sub, acc[:])
		for _, c := range p.comps[1:] {
			RunBatchHits(c, sub, m[:])
			for w := range acc[:words] {
				acc[w] |= m[w]
			}
		}
		for _, w := range acc[:words] {
			res.Correct += uint64(bits.OnesCount64(w))
		}
	}
	return res
}
