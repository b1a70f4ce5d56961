package metrics

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

func seq(pc uint32, vals []uint32) trace.Trace {
	t := make(trace.Trace, len(vals))
	for i, v := range vals {
		t[i] = trace.Event{PC: pc, Value: v}
	}
	return t
}

func TestPredictabilityConstant(t *testing.T) {
	vals := make([]uint32, 100)
	for i := range vals {
		vals[i] = 7
	}
	p := MeasurePredictability(seq(0x40, vals), 2)
	if p.Constant < 0.98 {
		t.Errorf("Constant = %.3f, want ~1", p.Constant)
	}
	if p.Stride < 0.98 {
		t.Errorf("Stride = %.3f (constants are stride-0)", p.Stride)
	}
	if p.Context < 0.9 {
		t.Errorf("Context = %.3f", p.Context)
	}
	if p.Ceiling() < 0.98 {
		t.Errorf("Ceiling = %.3f", p.Ceiling())
	}
}

func TestPredictabilityPureStride(t *testing.T) {
	vals := make([]uint32, 200)
	for i := range vals {
		vals[i] = uint32(i * 12)
	}
	p := MeasurePredictability(seq(0x40, vals), 2)
	if p.Constant > 0.02 {
		t.Errorf("Constant = %.3f, want ~0", p.Constant)
	}
	if p.Stride < 0.97 {
		t.Errorf("Stride = %.3f, want ~1", p.Stride)
	}
	// A never-repeating value stream has no context predictability...
	if p.Context > 0.02 {
		t.Errorf("Context = %.3f, want ~0", p.Context)
	}
	// ...but its *differences* are constant: the differential context
	// oracle captures it. This asymmetry is the paper's whole point.
	if p.DContext < 0.95 {
		t.Errorf("DContext = %.3f, want ~1", p.DContext)
	}
}

func TestPredictabilityRepeatingPattern(t *testing.T) {
	pattern := []uint32{9, 2, 25, 7, 1, 130}
	vals := make([]uint32, 60*len(pattern))
	for i := range vals {
		vals[i] = pattern[i%len(pattern)]
	}
	p := MeasurePredictability(seq(0x40, vals), 2)
	if p.Context < 0.95 || p.DContext < 0.95 {
		t.Errorf("Context = %.3f, DContext = %.3f, both should be ~1", p.Context, p.DContext)
	}
	if p.Constant > 0.05 || p.Stride > 0.05 {
		t.Errorf("Constant/Stride = %.3f/%.3f on an irregular pattern", p.Constant, p.Stride)
	}
}

func TestPredictabilityRandomNearZero(t *testing.T) {
	vals := make([]uint32, 3000)
	x := uint32(2463534242)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		vals[i] = x
	}
	p := MeasurePredictability(seq(0x40, vals), 2)
	if p.Ceiling() > 0.02 {
		t.Errorf("Ceiling = %.3f on random values", p.Ceiling())
	}
}

func TestPredictabilityOrderMatters(t *testing.T) {
	// A pattern ambiguous at order 1 but exact at order 2:
	// 1 2 X 1 3 Y repeated — after "1" the next value depends on the
	// value before the 1.
	pattern := []uint32{1, 2, 50, 1, 3, 60}
	vals := make([]uint32, 80*len(pattern))
	for i := range vals {
		vals[i] = pattern[i%len(pattern)]
	}
	p1 := MeasurePredictability(seq(0x40, vals), 1)
	p2 := MeasurePredictability(seq(0x40, vals), 2)
	if p2.Context <= p1.Context {
		t.Errorf("order-2 context (%.3f) should beat order-1 (%.3f)", p2.Context, p1.Context)
	}
	if p2.Context < 0.95 {
		t.Errorf("order-2 context = %.3f, want ~1", p2.Context)
	}
}

func TestPredictabilityEmpty(t *testing.T) {
	p := MeasurePredictability(nil, 2)
	if p.Events != 0 || p.Ceiling() != 0 {
		t.Errorf("empty: %+v", p)
	}
}

func TestPredictabilityPanicsOnBadOrder(t *testing.T) {
	for _, order := range []int{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("order %d did not panic", order)
				}
			}()
			MeasurePredictability(nil, order)
		}()
	}
}

func TestRealized(t *testing.T) {
	vals := make([]uint32, 400)
	for i := range vals {
		vals[i] = uint32(i * 4)
	}
	tr := seq(0x40, vals)
	ceiling := MeasurePredictability(tr, 2).DContext
	frac := Realized(core.NewDFCM(8, 12), tr, ceiling)
	if frac < 0.95 {
		t.Errorf("DFCM realizes %.3f of the differential ceiling on a pure stride", frac)
	}
	if Realized(core.NewDFCM(8, 12), tr, 0) != 0 {
		t.Error("zero ceiling should yield 0")
	}
}
