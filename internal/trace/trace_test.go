package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleTrace(n int, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	t := make(Trace, n)
	pc := uint32(0x1000)
	for i := range t {
		if rng.Intn(4) == 0 {
			pc = 0x1000 + uint32(rng.Intn(256))*4
		}
		t[i] = Event{PC: pc, Value: rng.Uint32() >> uint(rng.Intn(24))}
	}
	return t
}

func TestFileRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 17, 1000} {
		tr := sampleTrace(n, int64(n))
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("n=%d: Write: %v", n, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("n=%d: Read: %v", n, err)
		}
		if len(got) != len(tr) {
			t.Fatalf("n=%d: got %d events, want %d", n, len(got), len(tr))
		}
		for i := range tr {
			if got[i] != tr[i] {
				t.Fatalf("n=%d: event %d = %+v, want %+v", n, i, got[i], tr[i])
			}
		}
	}
}

func TestFileRoundTripQuick(t *testing.T) {
	prop := func(pcs, vals []uint32) bool {
		n := len(pcs)
		if len(vals) < n {
			n = len(vals)
		}
		tr := make(Trace, n)
		for i := 0; i < n; i++ {
			tr[i] = Event{PC: pcs[i], Value: vals[i]}
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(tr) {
			return false
		}
		for i := range tr {
			if got[i] != tr[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFileBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE....."))); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestFileTruncated(t *testing.T) {
	tr := sampleTrace(100, 9)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{0, 2, 5, len(raw) / 2, len(raw) - 1} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("Read of %d/%d bytes succeeded, want error", cut, len(raw))
		}
	}
}

func TestFileCompression(t *testing.T) {
	// The delta encoding should beat 8 bytes/event on realistic traces.
	tr := sampleTrace(10000, 10)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if perEvent := float64(buf.Len()) / float64(len(tr)); perEvent > 8 {
		t.Errorf("encoding uses %.1f bytes/event, want < 8", perEvent)
	}
}
