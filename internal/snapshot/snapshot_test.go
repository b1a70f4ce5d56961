package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// trainEvents mirrors the generator in internal/core's reset suite: a
// constant, a stride, a repeating context pattern and a noisy stream,
// so every table type gets dirtied.
func trainEvents(n int) trace.Trace {
	t := make(trace.Trace, 0, n)
	pattern := []uint32{9, 2, 25, 7, 1, 130, 4, 66}
	rnd := uint32(2463534242)
	for i := 0; len(t) < n; i++ {
		t = append(t,
			trace.Event{PC: 0x1000, Value: 42},
			trace.Event{PC: 0x1004, Value: uint32(i) * 8},
			trace.Event{PC: 0x1008, Value: pattern[i%len(pattern)]},
		)
		rnd ^= rnd << 13
		rnd ^= rnd >> 17
		rnd ^= rnd << 5
		t = append(t, trace.Event{PC: 0x100c, Value: rnd & 0xffff})
	}
	return t[:n]
}

// specs enumerates every predictor kind the Spec vocabulary can build,
// including delayed and narrow-stride variants.
func specs() []core.Spec {
	return []core.Spec{
		{Kind: "lvp", L1: 8},
		{Kind: "stride", L1: 8},
		{Kind: "2delta", L1: 8},
		{Kind: "fcm", L1: 8, L2: 10},
		{Kind: "dfcm", L1: 8, L2: 10},
		{Kind: "dfcm", L1: 6, L2: 8, Width: 8},
		{Kind: "hybrid", L1: 7, L2: 9},
		{Kind: "lvp", L1: 6, Delay: 4},
		{Kind: "dfcm", L1: 6, L2: 8, Delay: 6},
		{Kind: "tage", L1: 6, L2: 5, Tables: 4, Tag: 8, HistMin: 4, HistMax: 64},
		{Kind: "tage", L1: 5, L2: 4, Width: 8, Tables: 3, Tag: 6, HistMin: 2, HistMax: 32, Delay: 3},
	}
}

// TestSnapshotFileRoundTripEverySpec is the file-format half of the
// checkpoint equivalence property (the state-level half lives in
// internal/core): for every Spec configuration, run to event k,
// Capture → Encode → Decode → Restore, and drive both predictors
// onward — every subsequent prediction must match the uninterrupted
// run exactly.
func TestSnapshotFileRoundTripEverySpec(t *testing.T) {
	events := trainEvents(3000)
	const cut = 1700
	for _, spec := range specs() {
		t.Run(fmt.Sprintf("%s-l1=%d-l2=%d-w%d-d%d", spec.Kind, spec.L1, spec.L2, spec.Width, spec.Delay), func(t *testing.T) {
			p, err := spec.New()
			if err != nil {
				t.Fatal(err)
			}
			core.Run(p, events[:cut])

			meta := Meta{Session: 7, Predictions: uint64(cut), Hits: 1234, Updates: uint64(cut)}
			snap, err := Capture(spec, p, meta)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := snap.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Version != Version {
				t.Fatalf("decoded version %d, want %d", got.Version, Version)
			}
			if got.Spec != spec {
				t.Fatalf("decoded spec %+v, want %+v", got.Spec, spec)
			}
			if got.Meta != meta {
				t.Fatalf("decoded meta %+v, want %+v", got.Meta, meta)
			}
			restored, err := got.Restore()
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range events[cut:] {
				rv, wv := restored.Predict(e.PC), p.Predict(e.PC)
				if rv != wv {
					t.Fatalf("event %d: restored Predict(%#x) = %d, uninterrupted = %d", cut+i, e.PC, rv, wv)
				}
				p.Update(e.PC, e.Value)
				restored.Update(e.PC, e.Value)
			}
		})
	}
}

// TestCaptureRejectsNonSnapshotter: Capture must fail cleanly on a
// predictor without state export rather than write an empty snapshot.
func TestCaptureRejectsNonSnapshotter(t *testing.T) {
	if _, err := Capture(core.Spec{Kind: "lvp", L1: 4}, opaquePredictor{}, Meta{}); err == nil {
		t.Fatal("Capture accepted a predictor without AppendState")
	}
}

type opaquePredictor struct{}

func (opaquePredictor) Predict(uint32) uint32 { return 0 }
func (opaquePredictor) Update(uint32, uint32) {}
func (opaquePredictor) Name() string          { return "opaque" }
func (opaquePredictor) SizeBits() int64       { return 0 }

// encodeValid returns the encoded bytes of a small valid snapshot.
func encodeValid(t *testing.T) []byte {
	t.Helper()
	spec := core.Spec{Kind: "dfcm", L1: 4, L2: 6}
	p, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	core.Run(p, trainEvents(400))
	snap, err := Capture(spec, p, Meta{Session: 1, Predictions: 400, Hits: 100, Updates: 400})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeRejectsCorruption drives the decoder through each failure
// mode a damaged or hostile file can exhibit.
func TestDecodeRejectsCorruption(t *testing.T) {
	valid := encodeValid(t)

	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}

	cases := []struct {
		label string
		data  []byte
		want  error
	}{
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic},
		{"future version", mutate(func(b []byte) []byte { b[5] = Version + 1; return b }), ErrVersion},
		{"version zero", mutate(func(b []byte) []byte { b[4], b[5] = 0, 0; return b }), ErrVersion},
		{"reserved set", mutate(func(b []byte) []byte { b[7] = 1; return b }), ErrCorrupt},
		{"flipped state byte", mutate(func(b []byte) []byte { b[len(b)-20] ^= 0xFF; return b }), ErrChecksum},
		{"flipped checksum", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }), ErrChecksum},
		{"truncated mid-section", valid[:len(valid)/2], nil},
		{"empty", nil, nil},
		{"oversized claim", mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[headerSize+1:], MaxState+1)
			return b
		}), ErrSectionSize},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			_, err := Decode(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}
}

// section builds a raw {kind, length, payload} section.
func section(kind byte, payload []byte) []byte {
	b := []byte{kind, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(b[1:], uint32(len(payload)))
	return append(b, payload...)
}

// rawFile assembles header + sections + checksummed end section.
func rawFile(sections ...[]byte) []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, magic)
	b = binary.BigEndian.AppendUint16(b, Version)
	b = binary.BigEndian.AppendUint16(b, 0)
	for _, s := range sections {
		b = append(b, s...)
	}
	b = append(b, secEnd)
	b = binary.BigEndian.AppendUint32(b, 4)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestDecodeSectionDiscipline: duplicate sections and missing required
// sections are rejected; unknown sections are skipped but checksummed.
func TestDecodeSectionDiscipline(t *testing.T) {
	specSec := func() []byte {
		payload, err := encodeSpec(core.Spec{Kind: "lvp", L1: 4})
		if err != nil {
			t.Fatal(err)
		}
		return section(secSpec, payload)
	}
	stateSec := func() []byte {
		p, _ := core.Spec{Kind: "lvp", L1: 4}.New()
		return section(secState, p.(core.Snapshotter).AppendState(nil))
	}

	t.Run("unknown section skipped", func(t *testing.T) {
		data := rawFile(specSec(), section(0x7E, []byte("future extension")), stateSec())
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("decoder choked on an unknown section: %v", err)
		}
		if _, err := s.Restore(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("duplicate section", func(t *testing.T) {
		if _, err := Decode(bytes.NewReader(rawFile(specSec(), specSec(), stateSec()))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("duplicate spec section: err = %v", err)
		}
	})
	t.Run("missing spec", func(t *testing.T) {
		if _, err := Decode(bytes.NewReader(rawFile(stateSec()))); !errors.Is(err, ErrMissingSection) {
			t.Fatalf("missing spec: err = %v", err)
		}
	})
	t.Run("missing state", func(t *testing.T) {
		if _, err := Decode(bytes.NewReader(rawFile(specSec()))); !errors.Is(err, ErrMissingSection) {
			t.Fatalf("missing state: err = %v", err)
		}
	})
	t.Run("decode-max bound", func(t *testing.T) {
		data := rawFile(specSec(), stateSec())
		if _, err := DecodeMax(bytes.NewReader(data), 4); !errors.Is(err, ErrSectionSize) {
			t.Fatalf("DecodeMax ignored its bound: err = %v", err)
		}
	})
}

// TestWriteReadFile: the atomic write path round-trips, overwrites in
// place, and ReadFile rejects trailing garbage.
func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "session-0001.vps")
	spec := core.Spec{Kind: "fcm", L1: 5, L2: 7}
	p, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	core.Run(p, trainEvents(500))
	snap, err := Capture(spec, p, Meta{Session: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // second pass overwrites
		if err := WriteFile(path, snap); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec != spec {
		t.Fatalf("spec %+v, want %+v", got.Spec, spec)
	}
	if !bytes.Equal(got.State, snap.State) {
		t.Fatal("state bytes differ after file round trip")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want just the snapshot", len(ents))
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: err = %v", err)
	}
}

// TestEncodeRejectsOversizedState: Encode refuses to write a file its
// own decoder would reject.
func TestEncodeRejectsOversizedState(t *testing.T) {
	s := &Snapshot{Spec: core.Spec{Kind: "lvp", L1: 4}, State: make([]byte, MaxState+1)}
	if err := s.Encode(&bytes.Buffer{}); !errors.Is(err, ErrSectionSize) {
		t.Fatalf("oversized state: err = %v", err)
	}
}

// TestRestoreRejectsHostileSpec: a decoded spec still goes through
// Spec.New validation, so a snapshot cannot smuggle in an
// unconstructible predictor.
func TestRestoreRejectsHostileSpec(t *testing.T) {
	s := &Snapshot{Spec: core.Spec{Kind: "fcm", L1: 200, L2: 10}, State: nil}
	if _, err := s.Restore(); err == nil {
		t.Fatal("Restore built a predictor from an out-of-range spec")
	}
	s = &Snapshot{Spec: core.Spec{Kind: "nonesuch"}, State: nil}
	if _, err := s.Restore(); err == nil {
		t.Fatal("Restore built a predictor from an unknown kind")
	}
}
