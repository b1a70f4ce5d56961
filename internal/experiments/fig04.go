package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// figPattern is the worked example of Figures 4 and 8: the stride
// pattern 0 1 2 3 4 5 6, continuously repeated.
var figPattern = []uint32{0, 1, 2, 3, 4, 5, 6}

// contextUsage replays the repeated pattern through a two-level
// predictor and counts accesses per distinct level-2 index during the
// steady state.
func contextUsage(p core.Predictor, reps int) map[uint64]uint64 {
	idx := p.(core.L2Indexer)
	counts := make(map[uint64]uint64)
	warm := 3 * len(figPattern)
	n := 0
	for r := 0; r < reps; r++ {
		for _, v := range figPattern {
			if n >= warm {
				counts[idx.L2Index(0x40)]++
			}
			p.Update(0x40, v)
			n++
		}
	}
	return counts
}

func usageTable(title string, counts map[uint64]uint64) *metrics.Table {
	t := &metrics.Table{Title: title, Headers: []string{"distinct L2 entries", "accesses/iteration (max)", "accesses/iteration (min)"}}
	var max, min uint64
	min = ^uint64(0)
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	if len(counts) == 0 {
		min = 0
	}
	t.AddRow(fmt.Sprint(len(counts)), fmt.Sprint(max), fmt.Sprint(min))
	return t
}

func runFig4(cfg Config) (*Result, error) {
	res := &Result{ID: "fig4", Title: "stride pattern stored in the FCM level-2 table (worked example)"}
	const reps = 103 // 100 measured iterations + warmup
	counts := contextUsage(core.NewFCM(4, 12), reps)
	res.Tables = append(res.Tables, usageTable("FCM, pattern 0 1 2 3 4 5 6 repeated", counts))
	res.addNote("the FCM allocates one level-2 entry per distinct value in the pattern (%d entries for a length-%d pattern)",
		len(counts), len(figPattern))

	// Accuracy on the same pattern: FCM predicts it only after the
	// pattern repeats.
	tr := make(trace.Trace, 0, reps*len(figPattern))
	for r := 0; r < reps; r++ {
		for _, v := range figPattern {
			tr = append(tr, trace.Event{PC: 0x40, Value: v})
		}
	}
	acc := core.Run(core.NewFCM(4, 12), tr).Accuracy()
	res.addNote("FCM accuracy on the repeated pattern: %.3f (learns it, but only after repetition)", acc)
	return res, nil
}

func runFig8(cfg Config) (*Result, error) {
	res := &Result{ID: "fig8", Title: "stride pattern stored in the DFCM level-2 table (worked example)"}
	const reps = 103
	counts := contextUsage(core.NewDFCM(4, 12), reps)
	res.Tables = append(res.Tables, usageTable("DFCM, pattern 0 1 2 3 4 5 6 repeated", counts))

	// The paper's Figure 8: the constant-stride context is accessed
	// every iteration except around the counter reset; the reset
	// contexts occupy a handful of entries accessed once per
	// iteration.
	var hot int
	for _, c := range counts {
		if c > reps/2 {
			hot++
		}
	}
	res.addNote("%d level-2 entries in total; %d hot entry(ies) take the in-pattern accesses, the rest only absorb the counter reset",
		len(counts), hot)

	fcmCounts := contextUsage(core.NewFCM(4, 12), reps)
	if len(counts) >= len(fcmCounts) {
		res.addNote("WARNING: DFCM did not use fewer entries than FCM (%d vs %d)", len(counts), len(fcmCounts))
	} else {
		res.addNote("DFCM uses %d entries where FCM uses %d", len(counts), len(fcmCounts))
	}
	return res, nil
}

func init() {
	register(Experiment{
		ID:       "fig4",
		Title:    "worked example: FCM scatters a stride pattern",
		Artifact: "Figure 4",
		Run:      runFig4,
	})
	register(Experiment{
		ID:       "fig8",
		Title:    "worked example: DFCM collapses a stride pattern",
		Artifact: "Figure 8",
		Run:      runFig8,
	})
}
