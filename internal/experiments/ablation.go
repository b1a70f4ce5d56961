package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hash"
	"repro/internal/metrics"
)

// runAblationHash sweeps the FS R-k hash family for both FCM and DFCM
// at the 2^16/2^12 working point. The paper fixes FS R-5 (optimal for
// FCM per Sazeides) and explicitly notes it "did not try to optimize
// the order and the hashing function for DFCM" — this ablation
// supplies that missing sweep.
func runAblationHash(cfg Config) (*Result, error) {
	res := &Result{ID: "ablation-hash", Title: "FS R-k hash sweep for FCM and DFCM (2^16/2^12)"}
	t := &metrics.Table{Headers: []string{"k (shift)", "order", "FCM", "DFCM"}}
	const l2 = 12
	bestK, bestAcc := 0, 0.0
	ks := []uint{1, 2, 3, 4, 5, 6, 8, 12}
	s := newSweep(cfg)
	type pair struct{ f, d *engine.Job }
	pairs := make([]pair, len(ks))
	for i, k := range ks {
		k := k
		pairs[i] = pair{
			f: s.Add(func() core.Predictor {
				return core.NewFCMHash(16, l2, hash.NewFSR(l2, k))
			}),
			d: s.Add(func() core.Predictor {
				return core.NewDFCMHash(16, l2, 32, hash.NewFSR(l2, k))
			}),
		}
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	for i, k := range ks {
		f, d := pairs[i].f.Weighted(), pairs[i].d.Weighted()
		if d > bestAcc {
			bestAcc, bestK = d, int(k)
		}
		t.AddRow(fmt.Sprint(k), fmt.Sprint(hash.NewFSR(l2, k).Order()),
			metrics.F(f), metrics.F(d))
	}
	res.Tables = append(res.Tables, t)
	res.addNote("best DFCM hash in this sweep: FS R-%d (accuracy %.3f); the paper's FS R-5 is used everywhere else for comparability",
		bestK, bestAcc)
	return res, nil
}

// runAblationOrder contrasts hash order via the index width / shift
// relation at several level-2 sizes, holding the predictor at
// 2^16 level-1 entries.
func runAblationOrder(cfg Config) (*Result, error) {
	res := &Result{ID: "ablation-order", Title: "effective history order vs accuracy (DFCM, 2^16 level-1)"}
	t := &metrics.Table{Headers: []string{"log2(l2)", "order(k=5)", "DFCM k=5", "order(k=3)", "DFCM k=3"}}
	l2s := []uint{10, 12, 14, 16}
	s := newSweep(cfg)
	type pair struct{ d5, d3 *engine.Job }
	pairs := make([]pair, len(l2s))
	for i, l2 := range l2s {
		l2 := l2
		pairs[i] = pair{
			d5: s.Add(func() core.Predictor { return core.NewDFCM(16, l2) }),
			d3: s.Add(func() core.Predictor {
				return core.NewDFCMHash(16, l2, 32, hash.NewFSR(l2, 3))
			}),
		}
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	for i, l2 := range l2s {
		d5, d3 := pairs[i].d5.Weighted(), pairs[i].d3.Weighted()
		t.AddRow(fmt.Sprint(l2),
			fmt.Sprint(hash.NewFSR(l2, 5).Order()), metrics.F(d5),
			fmt.Sprint(hash.NewFSR(l2, 3).Order()), metrics.F(d3))
	}
	res.Tables = append(res.Tables, t)
	return res, nil
}

// runAblationMeta contrasts the perfect meta-predictor against a
// realizable saturating-counter meta-predictor (the paper argues the
// perfect one is unimplementable; this quantifies the gap).
func runAblationMeta(cfg Config) (*Result, error) {
	res := &Result{ID: "ablation-meta", Title: "perfect vs saturating-counter meta-predictor (stride 2^16 + FCM 2^16/l2)"}
	t := &metrics.Table{Headers: []string{"log2(l2)", "DFCM", "perfect hybrid", "counter hybrid"}}
	l2s := []uint{10, 12, 14}
	s := newSweep(cfg)
	// The perfect hybrid is scored from its components' hit masks
	// (AddAny). The counter hybrid stays a real predictor: its selector
	// reads both components' outcomes, so they do not train alone.
	st := s.Add(func() core.Predictor { return core.NewStride(16) })
	type trio struct{ d, ph, mh *engine.Job }
	trios := make([]trio, len(l2s))
	for i, l2 := range l2s {
		l2 := l2
		f := s.Add(func() core.Predictor { return core.NewFCM(16, l2) })
		trios[i] = trio{
			d:  s.Add(func() core.Predictor { return core.NewDFCM(16, l2) }),
			ph: s.AddAny(st, f),
			mh: s.Add(func() core.Predictor {
				return core.NewMetaHybrid(core.NewStride(16), core.NewFCM(16, l2), 16)
			}),
		}
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	for i, l2 := range l2s {
		t.AddRow(fmt.Sprint(l2), metrics.F(trios[i].d.Weighted()),
			metrics.F(trios[i].ph.Weighted()), metrics.F(trios[i].mh.Weighted()))
	}
	res.Tables = append(res.Tables, t)
	res.addNote("a realizable counter meta-predictor sits below the perfect hybrid; DFCM needs no meta-predictor at all")
	return res, nil
}

func init() {
	register(Experiment{
		ID:       "ablation-hash",
		Title:    "hash function ablation (FS R-k sweep)",
		Artifact: "section 4 (hash choice), extension",
		Run:      runAblationHash,
	})
	register(Experiment{
		ID:       "ablation-order",
		Title:    "history order ablation",
		Artifact: "section 4 (order choice), extension",
		Run:      runAblationOrder,
	})
	register(Experiment{
		ID:       "ablation-meta",
		Title:    "meta-predictor realizability ablation",
		Artifact: "section 4.3, extension",
		Run:      runAblationMeta,
	})
}
