package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/hash"
	"repro/internal/trace"
)

// scratchFold computes register r of fold f from first principles: the
// XOR of the last hist*tageBitsPerEvent pushed bits, bit j (counting
// back from the newest) rotated to position j mod width. This is the
// definition pushHistory's incremental recurrence and rebuildFolds must
// both satisfy.
func scratchFold(f *tageFold, r int, bits []uint8) uint32 {
	w := uint(f.width[r])
	var c uint32
	for j := 0; j < int(f.hist)*tageBitsPerEvent && j < len(bits); j++ {
		c ^= uint32(bits[len(bits)-1-j]) << (uint(j) % w)
	}
	return c
}

// checkFolds fails t unless every folded register of p equals its
// from-scratch fold over the shadow bit history.
func checkFolds(t *testing.T, p *TAGE, shadow []uint8, step int) {
	t.Helper()
	for i := range p.folds {
		f := &p.folds[i]
		for r := range f.reg {
			if want := scratchFold(f, r, shadow); f.reg[r] != want {
				t.Fatalf("step %d table %d register %d (width %d, window %d events): incremental %#x, scratch %#x",
					step, i, r, f.width[r], f.hist, f.reg[r], want)
			}
		}
	}
}

// xorshift returns a deterministic 32-bit generator for test streams.
func xorshift(seed uint32) func() uint32 {
	return func() uint32 {
		seed ^= seed << 13
		seed ^= seed >> 17
		seed ^= seed << 5
		return seed
	}
}

// TestTAGEFoldedHistoryMatchesScratch is the folded-history property
// test: after every step of a random interleaving of Updates, Resets
// and snapshot round trips (AppendState into a fresh predictor's
// RestoreState, which then carries on), every folded register equals
// the from-scratch fold of its history window. The shadow history
// replicates Update's bit stream (hash.Fold of each update's stride)
// independently of the ring. The geometries cover register widths 1-3
// (l2bits 1-3, tagBits 4), where one overflow fold per event is not
// enough, the longest history, and the largest table count.
func TestTAGEFoldedHistoryMatchesScratch(t *testing.T) {
	geoms := []struct {
		name string
		mk   func() *TAGE
	}{
		{"l2=5,tag9,t5,h3..96", func() *TAGE { return NewTAGE(6, 5, 32, 5, 9, 3, 96) }},
		{"l2=1,tag4,t3,h1..16", func() *TAGE { return NewTAGE(4, 1, 32, 3, 4, 1, 16) }},
		{"l2=2,tag4,t4,h2..max", func() *TAGE { return NewTAGE(4, 2, 8, 4, 4, 2, TAGEMaxHist) }},
		{"l2=3,tag5,t2,h5..7", func() *TAGE { return NewTAGE(4, 3, 32, 2, 5, 5, 7) }},
		{"l2=3,tag4,tmax,h1..max", func() *TAGE { return NewTAGE(5, 3, 8, TAGEMaxTables, 4, 1, TAGEMaxHist) }},
		{"l2=11,tag16,tmax,h4..max", func() *TAGE { return NewTAGE(6, 11, 32, TAGEMaxTables, 16, 4, TAGEMaxHist) }},
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			p := g.mk()
			var shadow []uint8
			next := xorshift(88172645)
			for step := 0; step < 3000; step++ {
				switch next() % 97 {
				case 0:
					p.Reset()
					shadow = shadow[:0]
				case 1, 2:
					q := g.mk()
					if err := q.RestoreState(p.AppendState(nil)); err != nil {
						t.Fatal(err)
					}
					p = q
				default:
					pc := (next() % 64) << 2
					value := next()
					if step%3 == 0 { // keep some strides small and repeating
						value = p.last[(pc>>2)&p.l1mask] + next()%5
					}
					stride := value - p.last[(pc>>2)&p.l1mask]
					p.Update(pc, value)
					folded := uint32(hash.Fold(uint64(stride), tageBitsPerEvent))
					for b := uint(0); b < tageBitsPerEvent; b++ {
						shadow = append(shadow, uint8((folded>>b)&1))
					}
				}
				checkFolds(t, p, shadow, step)
			}
		})
	}
}

// TestTAGEPushHistoryEveryWidth drives pushHistory alone, outside any
// table geometry, at every register width the constructor can produce
// (1 through 30 bits) and at window lengths from one event to
// TAGEMaxHist, so the chunked recurrence is pinned even at widths whose
// tables would be too large to build in a test.
func TestTAGEPushHistoryEveryWidth(t *testing.T) {
	next := xorshift(2463534242)
	for w := uint8(1); w <= 30; w++ {
		for _, h := range []uint32{1, 2, 3, 5, 64, TAGEMaxHist} {
			p := &TAGE{ring: make([]uint8, 2*TAGEMaxHist), ringMask: 2*TAGEMaxHist - 1}
			for _, rw := range [][3]uint8{{w, w, w}, {w, max(w, 2) - 1, min(w+1, 30)}} {
				f := tageFold{hist: h, width: rw}
				for r := range f.out {
					f.out[r] = uint8(h * tageBitsPerEvent % uint32(rw[r]))
				}
				p.folds = append(p.folds, f)
			}
			var shadow []uint8
			for step := 0; step < 3*int(h)+40; step++ {
				nibble := next() & 0xf
				p.pushHistory(nibble)
				for b := uint(0); b < tageBitsPerEvent; b++ {
					shadow = append(shadow, uint8((nibble>>b)&1))
				}
				checkFolds(t, p, shadow, step)
			}
		}
	}
}

// tageGoldenEvents is a fixed, seeded update stream over 48 PCs: a
// third repeat one stride, a third cycle through a short stride
// pattern, the rest take xorshift values, so the base, every tagged
// table and the history ring all see traffic.
func tageGoldenEvents(n int) trace.Trace {
	out := make(trace.Trace, 0, n)
	next := xorshift(2463534242)
	vals := make([]uint32, 48)
	pattern := []uint32{3, 17, 3, 250, 1 << 20}
	for i := 0; i < n; i++ {
		rnd := next()
		k := int(rnd>>8) % len(vals)
		switch k % 3 {
		case 0:
			vals[k] += uint32(4 * k)
		case 1:
			vals[k] += pattern[i%len(pattern)]
		default:
			vals[k] = rnd & 0xfffff
		}
		out = append(out, trace.Event{PC: 0x4000 + uint32(k)<<2, Value: vals[k]})
	}
	return out
}

// TestTAGEStateLayoutGolden pins the VPSS byte layout of TAGE state:
// the SHA-256 of AppendState after a fixed update stream, at the
// default-like geometry and at a narrow-stride, longest-history one
// whose history ring wraps many times. The in-memory history
// representation may change; these digests, and so every snapshot
// already on disk, may not. Restoring the pinned state and continuing
// must then match the uninterrupted run event for event.
func TestTAGEStateLayoutGolden(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *TAGE
		want string
	}{
		{"l1=6,l2=5,w32,t4,tag8,h4..64", func() *TAGE { return NewTAGE(6, 5, 32, 4, 8, 4, 64) },
			"4991e762169d8ab8affc9bd1d4e34a45889e807b915a92b26f4676a55ef971bb"},
		{"l1=5,l2=4,w8,t6,tag6,h2..128", func() *TAGE { return NewTAGE(5, 4, 8, 6, 6, 2, TAGEMaxHist) },
			"2d7f52dd632a2ecfd0546806360a0f6b0eb28466b499aa1c1c1855c9d8b5fc35"},
	}
	events := tageGoldenEvents(6000)
	head, tail := events[:4000], events[4000:]
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := c.mk()
			for _, e := range head {
				p.Update(e.PC, e.Value)
			}
			state := p.AppendState(nil)
			if got := fmt.Sprintf("%x", sha256.Sum256(state)); got != c.want {
				t.Fatalf("state digest %s, want %s", got, c.want)
			}
			q := c.mk()
			if err := q.RestoreState(state); err != nil {
				t.Fatal(err)
			}
			for i, e := range tail {
				if pp, qp := p.Predict(e.PC), q.Predict(e.PC); pp != qp {
					t.Fatalf("event %d after restore: predicts %#x, uninterrupted %#x", i, qp, pp)
				}
				p.Update(e.PC, e.Value)
				q.Update(e.PC, e.Value)
			}
			if !bytes.Equal(p.AppendState(nil), q.AppendState(nil)) {
				t.Fatal("restored run's final state differs from the uninterrupted run's")
			}
		})
	}
}

// TestTAGEHistorySeries pins the series generator: exact endpoints,
// non-decreasing, degenerate single-table and equal-length forms.
func TestTAGEHistorySeries(t *testing.T) {
	cases := []struct {
		n          int
		hmin, hmax uint
	}{
		{4, 4, 64}, {6, 2, 128}, {2, 1, 128}, {12, 1, 128},
		{1, 4, 64}, {3, 16, 16}, {5, 7, 8},
	}
	for _, c := range cases {
		s := TAGEHistorySeries(c.n, c.hmin, c.hmax)
		if len(s) != c.n {
			t.Fatalf("series(%d,%d,%d) has %d entries", c.n, c.hmin, c.hmax, len(s))
		}
		if c.n == 1 {
			if s[0] != c.hmax {
				t.Errorf("series(1,%d,%d) = %v, want [%d]", c.hmin, c.hmax, s, c.hmax)
			}
			continue
		}
		if s[0] != c.hmin || s[c.n-1] != c.hmax {
			t.Errorf("series(%d,%d,%d) = %v: endpoints not pinned", c.n, c.hmin, c.hmax, s)
		}
		for i := 1; i < c.n; i++ {
			if s[i] < s[i-1] {
				t.Errorf("series(%d,%d,%d) = %v: decreasing at %d", c.n, c.hmin, c.hmax, s, i)
			}
		}
	}
}

// TestTAGELearnsHistoryPattern: a value stream whose stride alternates
// defeats any single-stride predictor (the base component included)
// but is fully determined by one event of stride history; the tagged
// tables must pick it up. This is the accuracy mechanism the whole
// subsystem exists for, so it gets a direct behavioural pin.
func TestTAGELearnsHistoryPattern(t *testing.T) {
	p := NewTAGE(6, 6, 32, 4, 8, 2, 32)
	v := uint32(0)
	strides := []uint32{3, 17} // alternating: base stride is always wrong
	warmup, measure := 2000, 2000
	for i := 0; i < warmup; i++ {
		v += strides[i%2]
		p.Update(0x40, v)
	}
	hits := 0
	for i := 0; i < measure; i++ {
		v += strides[(warmup+i)%2]
		if p.Predict(0x40) == v {
			hits++
		}
		p.Update(0x40, v)
	}
	if acc := float64(hits) / float64(measure); acc < 0.95 {
		t.Errorf("alternating-stride accuracy %.3f, want >= 0.95 (tagged history not engaged)", acc)
	}
}

// TestTAGERestoreErrors covers the RestoreState validation paths: a
// well-formed frame restores, and each field family rejects
// out-of-range bytes with ErrState.
func TestTAGERestoreErrors(t *testing.T) {
	mk := func() *TAGE { return NewTAGE(4, 3, 8, 2, 6, 2, 8) }
	p := mk()
	for i, e := range trainEvents(500) {
		_ = i
		p.Update(e.PC, e.Value)
	}
	good := p.AppendState(nil)
	if err := mk().RestoreState(good); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}

	nBase := 1 << 4
	nTagged := 2 << 3
	off := struct {
		bstride, tags, strides, conf, ubits, ring int
	}{
		bstride: 4 * nBase,
		tags:    8 * nBase,
		strides: 8*nBase + 4*nTagged,
		conf:    8*nBase + 8*nTagged,
		ubits:   8*nBase + 8*nTagged + nTagged,
		ring:    8*nBase + 8*nTagged + 2*nTagged,
	}
	corrupt := func(name string, at int, b byte) {
		bad := append([]byte(nil), good...)
		bad[at] = b
		if err := mk().RestoreState(bad); err == nil {
			t.Errorf("%s corruption at %d accepted", name, at)
		}
	}
	corrupt("base stride width", off.bstride, 0xff) // stride wider than 8 bits
	corrupt("tag width", off.tags, 0xff)            // tag wider than 6 bits
	corrupt("stride width", off.strides, 0xff)
	corrupt("confidence", off.conf, 4)
	corrupt("usefulness", off.ubits, 4)
	corrupt("ring bit", off.ring, 2)
	if err := mk().RestoreState(good[:len(good)-1]); err == nil {
		t.Error("truncated state accepted")
	}
	if err := mk().RestoreState(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("oversized state accepted")
	}
}

// TestTAGEStateTables sanity-checks the occupancy view: base + one row
// per tagged table + the history ring, with live counts that grow
// under training.
func TestTAGEStateTables(t *testing.T) {
	p := NewTAGE(6, 5, 32, 3, 8, 4, 32)
	tables := p.StateTables()
	if len(tables) != 1+3+1 {
		t.Fatalf("got %d tables, want 5", len(tables))
	}
	for _, ti := range tables {
		if ti.Live != 0 {
			t.Errorf("fresh predictor table %s has %d live entries", ti.Name, ti.Live)
		}
	}
	for _, e := range trainEvents(3000) {
		p.Update(e.PC, e.Value)
	}
	tables = p.StateTables()
	if tables[0].Name != "base" || tables[0].Live == 0 {
		t.Errorf("trained base table: %+v", tables[0])
	}
	if !strings.HasPrefix(tables[1].Name, "t1(") {
		t.Errorf("tagged table name %q", tables[1].Name)
	}
	if last := tables[len(tables)-1]; last.Name != "hist" || last.Live == 0 {
		t.Errorf("history table: %+v", last)
	}
}

// TestTAGEDiagnostics exercises the vpstate-facing accessors.
func TestTAGEDiagnostics(t *testing.T) {
	p := NewTAGE(6, 5, 32, 3, 8, 4, 32)
	if p.NumTables() != 3 {
		t.Fatalf("NumTables = %d", p.NumTables())
	}
	if h := p.HistoryLengths(); len(h) != 3 || h[0] != 4 || h[2] != 32 {
		t.Fatalf("HistoryLengths = %v", h)
	}
	// On a fresh table every tag is zero, so a PC whose computed tag
	// folds to zero can spuriously match (prediction-neutral: conf 0
	// defers to the altpred) — the histogram must still cover every
	// base slot and be dominated by the base bucket.
	ph := p.ProviderHistogram()
	sumPH := 0
	for _, n := range ph {
		sumPH += n
	}
	if len(ph) != 4 || sumPH != 1<<6 || ph[3] < 1<<5 {
		t.Fatalf("fresh provider histogram %v", ph)
	}
	for _, e := range trainEvents(3000) {
		p.Update(e.PC, e.Value)
	}
	total := 0
	for t := 0; t < 3; t++ {
		h := p.UHistogram(t)
		for _, n := range h {
			total += n
		}
	}
	if total != 3*(1<<5) {
		t.Fatalf("u histograms cover %d entries, want %d", total, 3*(1<<5))
	}
	q := NewTAGE(6, 5, 32, 3, 8, 4, 32)
	div, ok := p.DivergingEntries(q)
	if !ok || len(div) != 3 {
		t.Fatalf("DivergingEntries: %v %v", div, ok)
	}
	sum := 0
	for _, d := range div {
		sum += d
	}
	if sum == 0 {
		t.Error("trained vs fresh should diverge somewhere")
	}
	if _, ok := p.DivergingEntries(NewTAGE(6, 5, 32, 4, 8, 4, 32)); ok {
		t.Error("geometry mismatch must report !ok")
	}
}
