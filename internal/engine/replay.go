package engine

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/trace"
)

// replayChunks drives every predictor over tr exactly once, in shared
// event chunks: each chunk is fed to all predictors before the next
// chunk is touched, so the chunk's events stay hot in cache across
// the whole sweep while each predictor's own batch runs without
// per-event Source dispatch (core.RunBatch). Summing per-chunk
// results is exactly one core.Run per predictor, because predictor
// state carries across chunks and results are plain counters.
//
// Perfect-meta hybrids ride on the same pass. A predictor i with a
// non-nil hits[i] (chunk-sized, reused every chunk) runs through
// core.RunBatchHits instead, recording which events it got right.
// Each any-set anys[k] lists predictor indices; its result,
// results[len(preds)+k], counts the events at least one of them hit —
// the popcount of the OR of their masks. Every predictor trains on
// every event whether or not it is part of an any-set, so the count
// is exactly core.PerfectHybrid's over fresh copies of the members.
//
// This is the engine's per-event-chunk hot path: vplint's
// hot-path-alloc rule lints every replay* function in this package,
// so the loop body must stay free of fmt, reflect, defer, goroutine
// launches and interface boxing.
func replayChunks(preds []core.Predictor, hits [][]uint64, anys [][]int, results []core.Result, tr trace.Trace, chunk int) {
	for start := 0; start < len(tr); start += chunk {
		batch := tr[start:min(start+chunk, len(tr))]
		for i, p := range preds {
			var r core.Result
			if i < len(hits) && hits[i] != nil {
				r = core.RunBatchHits(p, batch, hits[i])
			} else {
				r = core.RunBatch(p, batch)
			}
			results[i].Predictions += r.Predictions
			results[i].Correct += r.Correct
		}
		words := core.HitWords(len(batch))
		for k, members := range anys {
			var correct uint64
			for w := 0; w < words; w++ {
				var m uint64
				for _, c := range members {
					m |= hits[c][w]
				}
				correct += uint64(bits.OnesCount64(m))
			}
			r := &results[len(preds)+k]
			r.Predictions += uint64(len(batch))
			r.Correct += correct
		}
	}
}
