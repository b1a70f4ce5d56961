package core

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

func TestDelayedZeroEquivalent(t *testing.T) {
	// delay 0 must be bit-identical to the unwrapped predictor.
	tr := mixedTrace(2000, 3)
	for _, mk := range []func() Predictor{
		func() Predictor { return NewLastValue(8) },
		func() Predictor { return NewStride(8) },
		func() Predictor { return NewFCM(8, 10) },
		func() Predictor { return NewDFCM(8, 10) },
	} {
		plain := Run(mk(), tr)
		delayed := Run(NewDelayed(mk(), 0), tr)
		if plain != delayed {
			t.Errorf("%s: delay-0 result %+v != plain %+v", mk().Name(), delayed, plain)
		}
	}
}

func TestDelayedStaleHistoryHurtsTightLoop(t *testing.T) {
	// A single instruction producing a stride pattern: with delay d,
	// every prediction is based on history d events old, so the stride
	// predictor still extrapolates correctly only once the stale last
	// value is accounted... for LVP the prediction is simply d+1
	// values behind and always wrong on a stride.
	vals := strideSeq(0, 1, 400)
	plain := tailAccuracy(NewStride(10), vals, 10)
	if plain != 1 {
		t.Fatalf("undelayed stride accuracy = %v", plain)
	}
	d := NewDelayed(NewStride(10), 8)
	var correct, total int
	for i, v := range vals {
		if d.Predict(0x40) == v && i >= 20 {
			correct++
		}
		if i >= 20 {
			total++
		}
		d.Update(0x40, v)
	}
	acc := float64(correct) / float64(total)
	if acc > 0.05 {
		t.Errorf("delayed stride accuracy in tight loop = %v, want ~0 (stale last value)", acc)
	}
}

func TestDelayedDoesNotAffectDistantRecurrence(t *testing.T) {
	// If an instruction recurs only every delay+k events, its updates
	// are always applied before its next prediction, so accuracy is
	// unchanged. Construct 64 interleaved constant instructions and
	// delay 16 < 64.
	var tr trace.Trace
	for i := 0; i < 200; i++ {
		for k := 0; k < 64; k++ {
			tr = append(tr, trace.Event{PC: uint32(0x1000 + 4*k), Value: uint32(k)})
		}
	}
	plain := Run(NewLastValue(10), tr)
	delayed := Run(NewDelayed(NewLastValue(10), 16), tr)
	if plain != delayed {
		t.Errorf("delay < recurrence distance changed result: %+v vs %+v", delayed, plain)
	}
}

func TestDelayedMonotoneDegradation(t *testing.T) {
	// Figure 17's shape: accuracy is non-increasing in delay (up to
	// noise; here we require weak monotonicity on a deterministic
	// workload with generous tolerance).
	rng := rand.New(rand.NewSource(11))
	var tr trace.Trace
	pattern := []uint32{5, 19, 3, 200, 42}
	for i := 0; i < 3000; i++ {
		for k := 0; k < 8; k++ {
			var v uint32
			switch k % 3 {
			case 0:
				v = uint32(i * (k + 1)) // stride
			case 1:
				v = pattern[(i+k)%len(pattern)] // context
			default:
				v = rng.Uint32() >> 20 // semi-random
			}
			tr = append(tr, trace.Event{PC: uint32(0x1000 + 4*k), Value: v})
		}
	}
	prev := 1.1
	for _, delay := range []int{0, 16, 64, 256} {
		acc := Run(NewDelayed(NewDFCM(8, 12), delay), tr).Accuracy()
		if acc > prev+0.02 {
			t.Errorf("accuracy increased with delay %d: %.3f > %.3f", delay, acc, prev)
		}
		prev = acc
	}
}

func TestDelayedFlush(t *testing.T) {
	p := NewLastValue(8)
	d := NewDelayed(p, 100)
	d.Update(0x40, 77)
	if p.Predict(0x40) == 77 {
		t.Fatal("update applied before flush")
	}
	d.Flush()
	if p.Predict(0x40) != 77 {
		t.Error("flush did not apply pending update")
	}
	// Flush on empty queue is a no-op.
	d.Flush()
}

func TestDelayedQueueCompaction(t *testing.T) {
	// The pending queue must not grow without bound.
	d := NewDelayed(NewLastValue(8), 4)
	for i := 0; i < 10000; i++ {
		d.Predict(0x40)
		d.Update(0x40, uint32(i))
	}
	if cap(d.pending) > 64 {
		t.Errorf("pending queue capacity grew to %d", cap(d.pending))
	}
}
