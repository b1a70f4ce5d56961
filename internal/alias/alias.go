// Package alias implements the paper's aliasing taxonomy (section
// 4.2): every prediction made by a two-level predictor (FCM or DFCM)
// is assigned to exactly one of five categories, checked in priority
// order:
//
//	l1      — some value in the history used to index level-2 was
//	          produced by a different static instruction (level-1
//	          table aliasing),
//	hash    — the complete (unhashed) history recorded at the level-2
//	          entry's last update differs from the current one (hash
//	          aliasing),
//	l2_priv — a private per-instruction level-2 table would have
//	          yielded a different prediction than the shared one,
//	l2_pc   — the level-2 entry was last updated by a different
//	          instruction (but with the same complete history),
//	none    — no aliasing detected.
//
// The analyzer is shadow instrumentation: its predictions are
// bit-identical to the corresponding core.FCM / core.DFCM predictor
// (verified by tests), and the bookkeeping (writer PCs, full
// histories, level-2 tags, private tables) exists only to classify.
package alias

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/trace"
)

// Kind is an aliasing category.
type Kind int

// Categories in the paper's priority order.
const (
	L1 Kind = iota
	Hash
	L2Priv
	L2PC
	None
	NumKinds
)

// String returns the paper's label for the category.
func (k Kind) String() string {
	switch k {
	case L1:
		return "l1"
	case Hash:
		return "hash"
	case L2Priv:
		return "l2_priv"
	case L2PC:
		return "l2_pc"
	case None:
		return "none"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds lists all categories in priority order.
func Kinds() []Kind { return []Kind{L1, Hash, L2Priv, L2PC, None} }

// histItem is one element of a shadow history: the value (or stride,
// for the differential analyzer) and the instruction that produced it.
type histItem struct {
	value uint32
	pc    uint32
}

// l1Entry is the shadow level-1 state for one table entry.
type l1Entry struct {
	last   uint32 // last value (differential mode only)
	hist   uint64 // hashed history, exactly as the real predictor keeps it
	recent []histItem
}

// l2Entry is the shadow level-2 state for one table entry.
type l2Entry struct {
	value    uint32
	tagPC    uint32
	tagHist  []uint32 // complete history recorded at last update
	tagValid bool
}

// Analyzer is an instrumented FCM (differential=false) or DFCM
// (differential=true).
type Analyzer struct {
	differential bool
	l1bits       uint
	h            hash.Func
	order        int
	l1           []l1Entry
	l2           []l2Entry
	priv         []map[uint64]uint32 // per level-1 entry private level-2

	counts [NumKinds]core.Result
}

// New returns an analyzer for a 2^l1bits x 2^l2bits predictor with
// the paper's FS R-5 hash. differential selects DFCM semantics.
func New(l1bits, l2bits uint, differential bool) *Analyzer {
	h := hash.NewFSR5(l2bits)
	return &Analyzer{
		differential: differential,
		l1bits:       l1bits,
		h:            h,
		order:        h.Order(),
		l1:           make([]l1Entry, 1<<l1bits),
		l2:           make([]l2Entry, 1<<l2bits),
		priv:         make([]map[uint64]uint32, 1<<l1bits),
	}
}

// Name identifies the analyzed predictor.
func (a *Analyzer) Name() string {
	if a.differential {
		return fmt.Sprintf("dfcm-2^%d/2^%d (alias analysis)", a.l1bits, len(a.l2))
	}
	return fmt.Sprintf("fcm-2^%d/2^%d (alias analysis)", a.l1bits, len(a.l2))
}

func (a *Analyzer) index(pc uint32) uint32 {
	return (pc >> 2) & uint32((1<<a.l1bits)-1)
}

// Step processes one event: predicts, classifies, scores and updates.
// It returns the category and whether the prediction was correct.
func (a *Analyzer) Step(pc, value uint32) (Kind, bool) {
	i := a.index(pc)
	e := &a.l1[i]
	idx := e.hist
	l2 := &a.l2[idx]

	pred := l2.value
	if a.differential {
		pred += e.last
	}
	correct := pred == value

	kind := a.classify(pc, i, e, l2, idx)
	a.counts[kind].Predictions++
	if correct {
		a.counts[kind].Correct++
	}

	a.update(pc, value, i, e, l2, idx)
	return kind, correct
}

// classify applies the paper's rules in priority order.
func (a *Analyzer) classify(pc, i uint32, e *l1Entry, l2 *l2Entry, idx uint64) Kind {
	// l1: all history values must come from the predicted instruction.
	for _, it := range e.recent {
		if it.pc != pc {
			return L1
		}
	}
	// hash: the complete history must match the one recorded at the
	// level-2 entry. An entry that was never updated cannot match.
	if !l2.tagValid || len(l2.tagHist) != len(e.recent) {
		return Hash
	}
	for k, it := range e.recent {
		if l2.tagHist[k] != it.value {
			return Hash
		}
	}
	// l2_priv: a private level-2 table must agree with the global one.
	// Untrained private entries hold zero, like a real zeroed table.
	var pv uint32
	if p := a.priv[i]; p != nil {
		pv = p[idx]
	}
	if pv != l2.value {
		return L2Priv
	}
	// l2_pc: the entry must have been updated by this instruction.
	if l2.tagPC != pc {
		return L2PC
	}
	return None
}

// update mirrors the real predictor's update and refreshes the shadow
// metadata.
func (a *Analyzer) update(pc, value uint32, i uint32, e *l1Entry, l2 *l2Entry, idx uint64) {
	w := value
	if a.differential {
		w = value - e.last
	}
	// Level-2: store the value/stride, tag with PC and the complete
	// history that selected this entry.
	l2.value = w
	l2.tagPC = pc
	l2.tagHist = l2.tagHist[:0]
	for _, it := range e.recent {
		l2.tagHist = append(l2.tagHist, it.value)
	}
	l2.tagValid = true
	// Private level-2.
	if a.priv[i] == nil {
		a.priv[i] = make(map[uint64]uint32)
	}
	a.priv[i][idx] = w
	// Level-1: append to history (hashed and complete), keep order items.
	e.hist = a.h.Update(e.hist, uint64(w))
	e.recent = append(e.recent, histItem{value: w, pc: pc})
	if len(e.recent) > a.order {
		copy(e.recent, e.recent[1:])
		e.recent = e.recent[:a.order]
	}
	if a.differential {
		e.last = value
	}
}

// Run classifies an entire trace.
func (a *Analyzer) Run(tr trace.Trace) {
	for _, e := range tr {
		a.Step(e.PC, e.Value)
	}
}

// Counts returns the per-category results (predictions and correct
// counts) accumulated so far.
func (a *Analyzer) Counts() [NumKinds]core.Result { return a.counts }

// Total returns the overall result across categories.
func (a *Analyzer) Total() core.Result {
	var t core.Result
	for _, c := range a.counts {
		t.Add(c)
	}
	return t
}
