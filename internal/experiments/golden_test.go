package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestGoldenEndToEnd locks the entire pipeline — assembler, simulator,
// benchmark programs, trace emission, hashing, predictors — to exact
// recorded outcomes. Every computation in the stack is deterministic
// integer arithmetic with no map-iteration or wall-clock dependence,
// so these values are stable across platforms and Go versions; any
// change to them means behaviour changed somewhere and must be
// reviewed (and, if intended, re-recorded with the generator in this
// file's history: run each benchmark for 200k instructions and count
// correct predictions).
func TestGoldenEndToEnd(t *testing.T) {
	golden := []struct {
		bench             string
		events            int
		stride, fcm, dfcm uint64
	}{
		{"cc1", 141971, 84658, 69081, 96372},
		{"compress", 152909, 74622, 26264, 92796},
		{"go", 148853, 111652, 89264, 122659},
		{"ijpeg", 182927, 95108, 89519, 128936},
		{"li", 117950, 81199, 77173, 105921},
		{"m88ksim", 163424, 76654, 132954, 147354},
		{"perl", 158981, 54746, 69789, 83704},
		{"vortex", 156270, 94422, 60910, 115646},
	}
	for _, g := range golden {
		tr, err := traceFor(g.bench, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr) != g.events {
			t.Errorf("%s: %d events, golden %d", g.bench, len(tr), g.events)
			continue
		}
		if got := core.Run(core.NewStride(14), tr).Correct; got != g.stride {
			t.Errorf("%s: stride correct = %d, golden %d", g.bench, got, g.stride)
		}
		if got := core.Run(core.NewFCM(16, 12), tr).Correct; got != g.fcm {
			t.Errorf("%s: fcm correct = %d, golden %d", g.bench, got, g.fcm)
		}
		if got := core.Run(core.NewDFCM(16, 12), tr).Correct; got != g.dfcm {
			t.Errorf("%s: dfcm correct = %d, golden %d", g.bench, got, g.dfcm)
		}
	}
}
