package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
)

func runFig10a(cfg Config) (*Result, error) {
	res := &Result{ID: "fig10a", Title: "FCM vs DFCM accuracy vs level-2 size (2^16 level-1 entries)"}
	t := &metrics.Table{Headers: []string{"log2(l2 entries)", "FCM", "DFCM", "DFCM/FCM"}}
	s := newSweep(cfg)
	type pair struct{ f, d *engine.Job }
	pairs := make([]pair, len(l2Sweep))
	for i, l2 := range l2Sweep {
		pairs[i] = pair{
			f: s.AddSpec(core.Spec{Kind: "fcm", L1: 16, L2: l2}),
			d: s.AddSpec(core.Spec{Kind: "dfcm", L1: 16, L2: l2}),
		}
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	var xs, fcmYs, dfcmYs []float64
	var maxGain, smallGap, largeGap float64
	for i, l2 := range l2Sweep {
		f, d := pairs[i].f.Weighted(), pairs[i].d.Weighted()
		gain := 0.0
		if f > 0 {
			gain = d / f
		}
		if gain > maxGain {
			maxGain = gain
		}
		if l2 == l2Sweep[0] {
			smallGap = d - f
		}
		if l2 == l2Sweep[len(l2Sweep)-1] {
			largeGap = d - f
		}
		xs = append(xs, float64(l2))
		fcmYs = append(fcmYs, f)
		dfcmYs = append(dfcmYs, d)
		t.AddRow(fmt.Sprint(l2), metrics.F(f), metrics.F(d), metrics.F(gain))
	}
	res.Tables = append(res.Tables, t)
	chart := &metrics.Plot{
		Title:  "Figure 10(a): FCM vs DFCM, 2^16 level-1 entries",
		XLabel: "log2(level-2 entries)", YLabel: "prediction accuracy",
	}
	chart.AddSeries("FCM", xs, fcmYs)
	chart.AddSeries("DFCM", xs, dfcmYs)
	res.Charts = append(res.Charts, chart)
	res.addNote("max relative improvement %.0f%% (paper: up to 33%%)", (maxGain-1)*100)
	res.addNote("absolute gap at smallest L2: %.3f; at largest L2: %.3f (paper: gap shrinks as L2 grows)",
		smallGap, largeGap)
	return res, nil
}

func runFig10b(cfg Config) (*Result, error) {
	res := &Result{ID: "fig10b", Title: "per-benchmark accuracy, FCM vs DFCM (2^16 level-1, 2^12 level-2)"}
	t := &metrics.Table{Headers: []string{"benchmark", "FCM", "DFCM", "rel.gain"}}
	s := newSweep(cfg)
	fj := s.AddSpec(core.Spec{Kind: "fcm", L1: 16, L2: 12})
	dj := s.AddSpec(core.Spec{Kind: "dfcm", L1: 16, L2: 12})
	if err := s.Run(); err != nil {
		return nil, err
	}
	fper, dper := fj.PerBench(), dj.PerBench()
	allImproved := true
	for i := range fper {
		f, d := fper[i].Result.Accuracy(), dper[i].Result.Accuracy()
		gain := 0.0
		if f > 0 {
			gain = (d/f - 1) * 100
		}
		if d < f {
			allImproved = false
		}
		t.AddRow(fper[i].Benchmark, metrics.F(f), metrics.F(d), fmt.Sprintf("%+.0f%%", gain))
	}
	fw, dw := metrics.WeightedMean(fper), metrics.WeightedMean(dper)
	t.AddRow("weighted avg", metrics.F(fw), metrics.F(dw), fmt.Sprintf("%+.0f%%", (dw/fw-1)*100))
	res.Tables = append(res.Tables, t)
	if allImproved {
		res.addNote("DFCM improves every benchmark (paper: gains of 8%% to 46%% across SPECint95)")
	} else {
		res.addNote("WARNING: some benchmark regressed under DFCM")
	}
	return res, nil
}

func init() {
	register(Experiment{
		ID:       "fig10a",
		Title:    "FCM vs DFCM across level-2 sizes",
		Artifact: "Figure 10(a)",
		Run:      runFig10a,
	})
	register(Experiment{
		ID:       "fig10b",
		Title:    "FCM vs DFCM per benchmark",
		Artifact: "Figure 10(b)",
		Run:      runFig10b,
	})
}
