// Package trace defines the value-trace substrate shared by the
// simulator, the predictors and the experiment harness.
//
// A trace is a sequence of Events, each recording that the static
// instruction at PC produced the 32-bit integer register value Value.
// This mirrors the paper's methodology: traces are generated on the fly
// by a functional simulator (SimpleScalar sim-safe there, internal/vm
// here) filtered down to integer register-producing instructions,
// including loads and excluding branches and jumps.
//
// The package provides the in-memory Trace every consumer takes, the
// compact VTR1 file format and its flate-compressed VTRZ container, and
// summary statistics. A trace is always materialized: consumers range
// over the slice, and a prefix is a slice expression.
package trace

// Event is a single predicted instruction: the program counter of the
// static instruction and the integer register value it produced.
// Values are 32-bit, as on the paper's (MIPS) target; predictors widen
// them internally.
type Event struct {
	PC    uint32
	Value uint32
}

// Trace is an in-memory sequence of events.
type Trace []Event
