package engine

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// replayChunks drives every predictor over tr exactly once, in shared
// event chunks: each chunk is fed to all predictors before the next
// chunk is touched, so the chunk's events stay hot in cache across
// the whole sweep while each predictor's own concrete batch loop
// (core.RunBatch) runs without per-event interface dispatch. Summing per-chunk
// results is exactly one core.Run per predictor, because predictor
// state carries across chunks and results are plain counters.
//
// A predictor i with a non-nil masks[i] runs through
// core.RunBatchHits instead and records which events it got right in
// masks[i], a zeroed mask over a whole trace of which tr is the slice
// starting at event off. A chunk that starts on a mask word is written
// in place; any other (a ChunkSize or FeedSize that is not a multiple
// of 64) is recorded into scratch, of at least core.HitWords(chunk)
// words, and ORed in at its bit offset.
//
// This is the engine's per-event-chunk hot path: vplint's
// hot-path-alloc rule lints every replay* function in this package,
// so the loop body must stay free of fmt, reflect, defer, goroutine
// launches and interface boxing.
func replayChunks(preds []core.Predictor, masks [][]uint64, results []core.Result, tr trace.Trace, off, chunk int, scratch []uint64) {
	for start := 0; start < len(tr); start += chunk {
		batch := tr[start:min(start+chunk, len(tr))]
		at := off + start
		for i, p := range preds {
			var r core.Result
			switch {
			case i >= len(masks) || masks[i] == nil:
				r = core.RunBatch(p, batch)
			case at%64 == 0:
				r = core.RunBatchHits(p, batch, masks[i][at/64:])
			default:
				r = core.RunBatchHits(p, batch, scratch)
				orBitsAt(masks[i], at, scratch[:core.HitWords(len(batch))])
			}
			results[i].Predictions += r.Predictions
			results[i].Correct += r.Correct
		}
	}
}

// orBitsAt ORs the bits of src into dst from bit off of dst on. The
// bits of src past the last event it records must be zero, as
// core.RunBatchHits leaves them, so nothing spills past the events dst
// covers.
func orBitsAt(dst []uint64, off int, src []uint64) {
	dst = dst[off/64:]
	sh := uint(off % 64)
	for i, v := range src {
		dst[i] |= v << sh
		// v >> 64 is 0, so an aligned off never spills.
		if hi := v >> (64 - sh); hi != 0 {
			dst[i+1] |= hi
		}
	}
}
