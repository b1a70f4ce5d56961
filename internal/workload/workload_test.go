package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestConstant(t *testing.T) {
	c := Constant(42)
	for i := 0; i < 5; i++ {
		if c.Next() != 42 {
			t.Fatal("constant changed")
		}
	}
}

func TestStride(t *testing.T) {
	s := &Stride{Start: 10, Step: 3}
	want := []uint32{10, 13, 16, 19}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("value %d = %d, want %d", i, got, w)
		}
	}
}

func TestStrideNegativeAndWrapping(t *testing.T) {
	s := &Stride{Start: 2, Step: 0xffffffff} // step -1
	if s.Next() != 2 || s.Next() != 1 || s.Next() != 0 || s.Next() != 0xffffffff {
		t.Error("negative stride did not wrap as two's complement")
	}
}

func TestCycle(t *testing.T) {
	c := &Cycle{Values: []uint32{1, 2, 3}}
	got := []uint32{c.Next(), c.Next(), c.Next(), c.Next()}
	if got[0] != 1 || got[3] != 1 {
		t.Errorf("cycle = %v", got)
	}
}

func TestRandomDeterministicAndBounded(t *testing.T) {
	a := &Random{Seed: 7, Bits: 12}
	b := &Random{Seed: 7, Bits: 12}
	for i := 0; i < 100; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatal("same seed diverged")
		}
		if va >= 1<<12 {
			t.Fatalf("value %d exceeds 12 bits", va)
		}
	}
	z := &Random{}
	if z.Next() == z.Next() && z.Next() == z.Next() {
		t.Error("zero-seed random looks constant")
	}
}

func TestResettingStride(t *testing.T) {
	s := &ResettingStride{Start: 5, Step: 2, Length: 3}
	want := []uint32{5, 7, 9, 5, 7, 9, 5}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("value %d = %d, want %d", i, got, w)
		}
	}
}

func TestInterleaveShape(t *testing.T) {
	instrs := []Instruction{
		{PC: 0x100, Stream: Constant(1)},
		{PC: 0x104, Stream: &Stride{Step: 1}},
	}
	tr := Interleave(instrs, 3)
	if len(tr) != 6 {
		t.Fatalf("got %d events, want 6", len(tr))
	}
	if tr[0].PC != 0x100 || tr[1].PC != 0x104 || tr[2].PC != 0x100 {
		t.Error("round-robin order broken")
	}
}

func TestLoopBodyComposition(t *testing.T) {
	body := LoopBody(0x1000, 2, 3, 4, 1)
	if len(body) != 10 {
		t.Fatalf("body has %d instructions", len(body))
	}
	seen := map[uint32]bool{}
	for _, in := range body {
		if seen[in.PC] {
			t.Fatalf("duplicate PC %#x", in.PC)
		}
		seen[in.PC] = true
	}
}

func TestPredictorsBehaveOnWorkloads(t *testing.T) {
	// Cross-check the generators against known predictor strengths.
	run := func(p core.Predictor, instrs []Instruction, rounds int) float64 {
		return core.Run(p, Interleave(instrs, rounds)).Accuracy()
	}
	stride := []Instruction{{PC: 0x40, Stream: &Stride{Start: 3, Step: 7}}}
	if acc := run(core.NewStride(8), stride, 500); acc < 0.99 {
		t.Errorf("stride predictor on stride stream: %.3f", acc)
	}
	if acc := run(core.NewDFCM(8, 12), stride, 500); acc < 0.98 {
		t.Errorf("DFCM on stride stream: %.3f", acc)
	}
	cyc := []Instruction{{PC: 0x40, Stream: &Cycle{Values: []uint32{5, 9, 1, 44}}}}
	if acc := run(core.NewFCM(8, 14), cyc, 500); acc < 0.95 {
		t.Errorf("FCM on cyclic stream: %.3f", acc)
	}
	if acc := run(core.NewLastValue(8), cyc, 500); acc > 0.05 {
		t.Errorf("LVP on cyclic stream: %.3f (should fail)", acc)
	}
}

func TestQuickResettingStrideOneMissPerLap(t *testing.T) {
	prop := func(start uint32, step8 uint8, lenRaw uint8) bool {
		length := 3 + int(lenRaw%20)
		s := &ResettingStride{Start: start, Step: uint32(step8), Length: length}
		p := core.NewStride(6)
		// Warm up four laps, then measure two laps.
		var miss int
		for i := 0; i < 6*length; i++ {
			v := s.Next()
			if p.Predict(0x40) != v && i >= 4*length {
				miss++
			}
			p.Update(0x40, v)
		}
		if step8 == 0 {
			return miss == 0 // constant: resets are invisible
		}
		if length >= 10 {
			// Long laps let the confidence counter saturate, so the
			// stride survives each reset: one miss per measured lap.
			return miss <= 2
		}
		// Short laps may never saturate confidence: the reset can also
		// cost the following prediction, i.e. up to two misses per lap.
		return miss <= 4
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
