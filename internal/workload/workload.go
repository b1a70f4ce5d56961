// Package workload generates synthetic value traces with controlled
// pattern mixes: constant, stride, repeating-context and random
// streams, interleaved as if produced by distinct static
// instructions. It backs the examples and the property tests; the
// real evaluation uses the MR32 benchmark suite (internal/progs).
package workload

import (
	"repro/internal/trace"
)

// rng is a tiny deterministic xorshift32, matching the PRNG the MR32
// benchmarks use.
type rng uint32

func (r *rng) next() uint32 {
	x := uint32(*r)
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	*r = rng(x)
	return x
}

// Stream produces the successive values of one synthetic static
// instruction.
type Stream interface {
	// Next returns the instruction's next produced value.
	Next() uint32
}

// Constant yields the same value forever (the last-value predictor's
// home turf).
type Constant uint32

// Next implements Stream.
func (c Constant) Next() uint32 { return uint32(c) }

// Stride counts from Start in steps of Step (loop induction
// variables, array addresses).
type Stride struct {
	Start uint32
	Step  uint32
	cur   uint32
	init  bool
}

// Next implements Stream.
func (s *Stride) Next() uint32 {
	if !s.init {
		s.cur = s.Start
		s.init = true
	}
	v := s.cur
	s.cur += s.Step
	return v
}

// Cycle repeats a fixed pattern of values (a repeating non-stride
// context pattern — the FCM's home turf).
type Cycle struct {
	Values []uint32
	i      int
}

// Next implements Stream.
func (c *Cycle) Next() uint32 {
	v := c.Values[c.i%len(c.Values)]
	c.i++
	return v
}

// Random yields pseudo-random values masked to Bits bits
// (hard-to-predict values). The zero seed is replaced.
type Random struct {
	Seed uint32
	Bits uint
	r    rng
}

// Next implements Stream.
func (r *Random) Next() uint32 {
	if r.r == 0 {
		if r.Seed == 0 {
			r.Seed = 2463534242
		}
		r.r = rng(r.Seed)
	}
	v := r.r.next()
	if r.Bits > 0 && r.Bits < 32 {
		v &= (1 << r.Bits) - 1
	}
	return v
}

// ResettingStride counts from Start in steps of Step, wrapping back to
// Start after Length values (a loop counter with resets — one
// misprediction per reset for a robust stride predictor).
type ResettingStride struct {
	Start  uint32
	Step   uint32
	Length int
	i      int
}

// Next implements Stream.
func (s *ResettingStride) Next() uint32 {
	v := s.Start + s.Step*uint32(s.i%s.Length)
	s.i++
	return v
}

// Instruction pairs a PC with the stream of values it produces.
type Instruction struct {
	PC     uint32
	Stream Stream
}

// Interleave returns the trace of rounds passes over all instructions
// in order, len(instrs)*rounds events — the shape of an inner loop
// body. Each stream advances once per pass, so a prefix of the result
// is the trace a shorter run would produce.
func Interleave(instrs []Instruction, rounds int) trace.Trace {
	tr := make(trace.Trace, 0, len(instrs)*max(rounds, 0))
	for r := 0; r < rounds; r++ {
		for _, in := range instrs {
			tr = append(tr, trace.Event{PC: in.PC, Value: in.Stream.Next()})
		}
	}
	return tr
}

// LoopBody builds a canonical mixed loop body at base PC: nConst
// constant instructions, nStride stride instructions (distinct
// strides), nCycle context instructions (shifted copies of one
// pattern) and nRand random instructions, in that PC order.
func LoopBody(base uint32, nConst, nStride, nCycle, nRand int) []Instruction {
	var out []Instruction
	pc := base
	add := func(s Stream) {
		out = append(out, Instruction{PC: pc, Stream: s})
		pc += 4
	}
	for i := 0; i < nConst; i++ {
		add(Constant(uint32(7 + i*13)))
	}
	for i := 0; i < nStride; i++ {
		add(&Stride{Start: uint32(i) * 100000, Step: uint32(2*i + 1)})
	}
	pattern := []uint32{9, 2, 25, 7, 1, 130, 4, 66}
	for i := 0; i < nCycle; i++ {
		rot := append(append([]uint32{}, pattern[i%len(pattern):]...), pattern[:i%len(pattern)]...)
		add(&Cycle{Values: rot})
	}
	for i := 0; i < nRand; i++ {
		add(&Random{Seed: uint32(88172645 + i), Bits: 16})
	}
	return out
}
