package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// runAblationIndex quantifies a detail every table-based predictor
// gets right silently: PC-indexed tables must drop the instruction
// alignment bits (MR32/MIPS instructions are 4-byte aligned, so the
// two low PC bits are always zero). Indexing with the raw PC leaves
// three quarters of every table dead. The raw-PC variant is simulated
// by shifting trace PCs left by two — the predictors' index function
// then effectively consumes the unshifted PC.
func runAblationIndex(cfg Config) (*Result, error) {
	res := &Result{ID: "ablation-index",
		Title: "PC indexing: dropping alignment bits vs raw PC (three quarters of the table dead)"}
	t := &metrics.Table{Headers: []string{"predictor", "aligned index", "raw-PC index", "loss"}}

	shiftPCs := func(tr trace.Trace) trace.Trace {
		out := make(trace.Trace, len(tr))
		for i, e := range tr {
			out[i] = trace.Event{PC: e.PC << 2, Value: e.Value}
		}
		return out
	}

	// Tables sized near the benchmarks' static instruction footprint
	// (~100-300 instructions), where losing three quarters of the
	// entries visibly increases aliasing. The paper-scale SPEC
	// binaries would show the same effect at much larger tables.
	kinds := []struct {
		name string
		mk   func() core.Predictor
	}{
		{"lvp-2^6", func() core.Predictor { return core.NewLastValue(6) }},
		{"stride-2^6", func() core.Predictor { return core.NewStride(6) }},
		{"dfcm-2^6/2^12", func() core.Predictor { return core.NewDFCM(6, 12) }},
	}
	// Each kind runs twice per benchmark (aligned and shifted PCs); the
	// shifted replay is a derived trace, so both ride as scans of the
	// shared pass.
	type cell struct{ aligned, raw core.Result }
	cells := make([][]cell, len(kinds))
	s := newSweep(cfg)
	for ki, k := range kinds {
		ki, k := ki, k
		cells[ki] = make([]cell, len(cfg.benchmarks()))
		s.AddScan(func(i int, bench string, tr trace.Trace) error {
			cells[ki][i] = cell{
				aligned: core.Run(k.mk(), tr),
				raw:     core.Run(k.mk(), shiftPCs(tr)),
			}
			return nil
		})
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	for ki, k := range kinds {
		var aligned, raw core.Result
		for _, c := range cells[ki] {
			aligned.Add(c.aligned)
			raw.Add(c.raw)
		}
		t.AddRow(k.name, metrics.F(aligned.Accuracy()), metrics.F(raw.Accuracy()),
			fmt.Sprintf("%+.3f", raw.Accuracy()-aligned.Accuracy()))
	}
	res.Tables = append(res.Tables, t)
	res.addNote("raw-PC indexing folds the whole program into a quarter of the level-1 table, so distinct instructions alias four times as often")
	return res, nil
}

func init() {
	register(Experiment{
		ID:       "ablation-index",
		Title:    "PC alignment bits in table indexing",
		Artifact: "implementation detail, extension",
		Run:      runAblationIndex,
	})
}
