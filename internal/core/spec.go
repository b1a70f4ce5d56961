package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Spec describes a predictor configuration. Its text form (ParseSpec,
// String) is the -spec flag of cmd/vpredict and cmd/vpserve and the
// entry format of vpserve's -autotune-candidates list. Keeping the
// mapping here guarantees that an online serving session and an
// offline replay built from the same -spec run the exact same
// predictor — the property the end-to-end equivalence test relies on.
type Spec struct {
	Kind  string // lvp | stride | 2delta | fcm | dfcm | hybrid | tage
	L1    uint   // log2 of the level-1 (or only) table entries
	L2    uint   // log2 of the level-2 table entries (fcm/dfcm/hybrid); log2 entries per tagged table (tage)
	Width uint   // stored stride width in bits (dfcm/tage); 0 means 32
	Delay int    // update delay in predictions; 0 disables; at most math.MaxUint32

	// TAGE-only geometry. Zero means the kind's default; Canonical
	// zeroes them for every other kind.
	Tables  uint // tagged-table count; 0 means 4
	Tag     uint // partial-tag width in bits; 0 means 8
	HistMin uint // shortest history length in events; 0 means 4
	HistMax uint // longest history length in events; 0 means 64
}

// Canonical returns the spec with fields the kind ignores zeroed and
// defaults made explicit, so two specs compare equal exactly when New
// builds behaviourally identical predictors. Checkpoint warm-start
// (internal/serve) and cmd/vpstate diff compare canonical specs.
func (s Spec) Canonical() Spec {
	switch s.Kind {
	case "lvp", "stride", "2delta":
		s.L2, s.Width = 0, 0
	case "fcm", "hybrid":
		s.Width = 0
	case "dfcm":
		if s.Width == 0 {
			s.Width = 32
		}
	case "tage":
		if s.Width == 0 {
			s.Width = 32
		}
		if s.Tables == 0 {
			s.Tables = 4
		}
		if s.Tag == 0 {
			s.Tag = 8
		}
		if s.HistMin == 0 {
			s.HistMin = 4
		}
		if s.HistMax == 0 {
			s.HistMax = 64
		}
	}
	if s.Kind != "tage" {
		s.Tables, s.Tag, s.HistMin, s.HistMax = 0, 0, 0, 0
	}
	return s
}

// Validate reports why New would reject the spec, without building
// any table. Specs arrive from flags, candidate lists and network
// peers, so every parameter the constructors would panic on is an
// error here.
func (s Spec) Validate() error {
	switch s.Kind {
	case "lvp", "stride", "2delta", "fcm", "dfcm", "hybrid", "tage":
	default:
		return fmt.Errorf("unknown predictor %q", s.Kind)
	}
	if s.L1 > 30 {
		return fmt.Errorf("level-1 width %d out of range [0,30]", s.L1)
	}
	if s.L2 > 30 {
		return fmt.Errorf("level-2 width %d out of range [0,30]", s.L2)
	}
	// The context kinds hash histories into the level-2 index, and a
	// zero-width hash is meaningless — the constructors panic on it,
	// so reject it here where inputs come from flags or the network.
	if s.L2 == 0 && (s.Kind == "fcm" || s.Kind == "dfcm" || s.Kind == "hybrid") {
		return fmt.Errorf("%s needs a level-2 width in [1,30]", s.Kind)
	}
	// tage indexes its tagged tables with L2 bits the same way; zero
	// tagged entries is meaningless.
	if s.L2 == 0 && s.Kind == "tage" {
		return fmt.Errorf("tage needs a tagged-table width in [1,30]")
	}
	if s.Width > 32 {
		return fmt.Errorf("stride width %d out of range [1,32]", s.Width)
	}
	// The delay bound is the snapshot format's u32 delay field, so
	// every spec that builds can also be checkpointed.
	if s.Delay < 0 || int64(s.Delay) > math.MaxUint32 {
		return fmt.Errorf("update delay %d out of range [0,%d]", s.Delay, uint32(math.MaxUint32))
	}
	if s.Kind == "tage" {
		c := s.Canonical()
		if c.Tables > TAGEMaxTables {
			return fmt.Errorf("tage table count %d out of range [1,%d]", c.Tables, TAGEMaxTables)
		}
		if c.Tag < 4 || c.Tag > 16 {
			return fmt.Errorf("tage tag width %d out of range [4,16]", c.Tag)
		}
		if c.HistMax > TAGEMaxHist || c.HistMin > c.HistMax {
			return fmt.Errorf("tage history series %d..%d out of range [1,%d]", c.HistMin, c.HistMax, TAGEMaxHist)
		}
	}
	return nil
}

// New builds a fresh predictor from the spec. Unlike the constructors,
// which panic on out-of-range parameters (programming errors), New
// validates first and returns Validate's error.
func (s Spec) New() (Predictor, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := s.Canonical()
	var p Predictor
	switch s.Kind {
	case "lvp":
		p = NewLastValue(s.L1)
	case "stride":
		p = NewStride(s.L1)
	case "2delta":
		p = NewTwoDelta(s.L1)
	case "fcm":
		p = NewFCM(s.L1, s.L2)
	case "dfcm":
		p = NewDFCMWidth(s.L1, s.L2, c.Width)
	case "hybrid":
		p = NewPerfectHybrid(NewStride(s.L1), NewFCM(s.L1, s.L2))
	case "tage":
		p = NewTAGE(c.L1, c.L2, c.Width, int(c.Tables), c.Tag, c.HistMin, c.HistMax)
	}
	if s.Delay > 0 {
		p = NewDelayed(p, s.Delay)
	}
	return p, nil
}

// specFields names the colon positions after the kind, with the
// ParseUint bit width each accepts: sizes and widths fit a byte,
// history lengths outgrow one, and the delay spans the snapshot
// format's u32 field.
var specFields = [...]struct {
	name string
	bits int
}{
	{"l1", 8}, {"l2", 8}, {"width", 8}, {"delay", 32},
	{"tables", 8}, {"tag", 8}, {"hmin", 16}, {"hmax", 16},
}

// ParseSpec parses the colon form
//
//	kind:l1[:l2[:width[:delay[:tables[:tag[:hmin[:hmax]]]]]]]
//
// e.g. "dfcm:16:12", "dfcm:14:12:16", "stride:14" or
// "tage:10:8:32:0:6:10:2:96". Omitted and zero positions mean the
// kind's default. The last four positions are the tage geometry (table
// count, tag width, shortest and longest history) and are an error on
// any other kind. The parsed spec is validated.
func ParseSpec(str string) (Spec, error) {
	parts := strings.Split(str, ":")
	if len(parts) < 2 || len(parts) > 1+len(specFields) {
		return Spec{}, fmt.Errorf("spec %q: want kind:l1[:l2[:width[:delay[:tables[:tag[:hmin[:hmax]]]]]]]", str)
	}
	var v [len(specFields)]uint64
	for i, part := range parts[1:] {
		var err error
		if v[i], err = strconv.ParseUint(part, 10, specFields[i].bits); err != nil {
			return Spec{}, fmt.Errorf("spec %q: %s: %v", str, specFields[i].name, err)
		}
	}
	s := Spec{
		Kind: parts[0], L1: uint(v[0]), L2: uint(v[1]), Width: uint(v[2]), Delay: int(v[3]),
		Tables: uint(v[4]), Tag: uint(v[5]), HistMin: uint(v[6]), HistMax: uint(v[7]),
	}
	// The geometry positions only mean something to tage; a nonzero
	// value there under any other kind is a misplaced field, not a
	// harmless extra.
	if s.Kind != "tage" && (s.Tables != 0 || s.Tag != 0 || s.HistMin != 0 || s.HistMax != 0) {
		return Spec{}, fmt.Errorf("spec %q: tables/tag/hmin/hmax apply only to tage", str)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("spec %q: %w", str, err)
	}
	return s, nil
}

// String renders the canonical spec in ParseSpec's colon form, with
// trailing positions at the kind's default dropped: Spec{Kind: "dfcm",
// L1: 16, L2: 12} renders as "dfcm:16:12", and ParseSpec reads every
// rendering back to a canonically equal spec.
func (s Spec) String() string {
	c := s.Canonical()
	d := Spec{Kind: c.Kind}.Canonical()
	vals := [...]any{c.L1, c.L2, c.Width, c.Delay, c.Tables, c.Tag, c.HistMin, c.HistMax}
	defs := [...]any{nil, d.L2, d.Width, d.Delay, d.Tables, d.Tag, d.HistMin, d.HistMax}
	n := len(vals)
	for vals[n-1] == defs[n-1] {
		n--
	}
	out := c.Kind
	for _, v := range vals[:n] {
		out += fmt.Sprintf(":%d", v)
	}
	return out
}
