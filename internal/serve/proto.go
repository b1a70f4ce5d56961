// Package serve exposes the internal/core value predictors as a
// concurrent network service: a length-prefixed binary wire protocol
// over TCP, per-session predictor state keyed by client-chosen
// session IDs, and a sharded engine (one goroutine per shard, bounded
// mailboxes) so independent sessions never contend on one lock.
//
// # Wire protocol ("VP1")
//
// Every message — request or response — is one frame:
//
//	magic   uint16  0x5650 ("VP")
//	version uint8   1
//	op      uint8   request op, or op|0x80 for its response
//	length  uint32  payload bytes (big-endian), bounded by MaxFrame
//	payload length bytes
//
// All integers are big-endian. Request payloads begin with the
// client-chosen 64-bit session ID where one applies. Response
// payloads begin with a one-byte status.
//
//	PredictBatch (0x01) req:  session u64, count u32, count × pc u32
//	             resp: status u8, count u32, count × value u32
//	UpdateBatch  (0x02) req:  session u64, count u32, count × (pc u32, value u32)
//	             resp: status u8
//	RunBatch     (0x03) req:  session u64, count u32, count × (pc u32, value u32)
//	             resp: status u8, hits u32
//	Stats        (0x04) req:  empty
//	             resp: status u8, JSON-encoded Stats
//	ResetSession (0x05) req:  session u64
//	             resp: status u8
//	SnapshotSession (0x06) req:  session u64
//	             resp: status u8, encoded internal/snapshot file
//	RestoreSession  (0x07) req:  session u64, encoded internal/snapshot file
//	             resp: status u8
//
// SnapshotSession returns the session's durable snapshot — the same
// bytes a server-side checkpoint writes to disk — captured atomically
// on the owning shard. It never creates a session (a missing session
// is StatusBadRequest) and is StatusUnsupported when the predictor
// cannot export its state. Responses can far exceed DefaultMaxFrame;
// clients read them with the MaxSnapshotFrame bound.
//
// RestoreSession is the symmetric write: it installs the session from
// an encoded snapshot — typically one SnapshotSession returned from
// another server, which is how internal/cluster migrates a live
// session between backends. The snapshot's canonical spec must match
// the server's (StatusSpecMismatch otherwise) and its meta session ID,
// when nonzero, must match the addressed session. A restore is
// authoritative: an existing live session is replaced. Request frames
// carry the snapshot blob and may exceed an ordinary server's
// MaxFrame; servers accept them up to MaxSnapshotFrame.
//
// Servers answer a request frame declaring a payload beyond the
// applicable cap — but within MaxSnapshotFrame — with
// StatusBadRequest after draining the declared bytes, keeping the
// connection synchronized. Only a frame beyond MaxSnapshotFrame,
// which no VP1 peer legitimately sends, drops the connection.
//
// RunBatch performs the offline predict-compare-update loop
// (core.Run) server-side, one event at a time in order, so a replay
// through the server is event-for-event equivalent to an offline run
// — including events in the same batch training their successors.
// Split PredictBatch/UpdateBatch calls trade that strict equivalence
// for pipelining: predictions within one batch all see the table
// state at batch start.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Protocol constants.
const (
	protoMagic   = 0x5650 // "VP"
	protoVersion = 1
	headerSize   = 8

	// respFlag marks a response frame's op byte.
	respFlag = 0x80

	// DefaultMaxFrame bounds the payload of a single frame; at 8
	// bytes per event that is ~128k events per batch.
	DefaultMaxFrame = 1 << 20

	// MaxSnapshotFrame bounds a SnapshotSession response frame: the
	// largest encodable predictor state plus the snapshot container
	// and status overhead.
	MaxSnapshotFrame = snapshot.MaxState + 4096
)

// Ops.
const (
	OpPredictBatch    = 0x01
	OpUpdateBatch     = 0x02
	OpRunBatch        = 0x03
	OpStats           = 0x04
	OpResetSession    = 0x05
	OpSnapshotSession = 0x06
	OpRestoreSession  = 0x07
)

// Status is the first byte of every response payload.
type Status uint8

// Statuses.
const (
	StatusOK          Status = 0 // request processed
	StatusBusy        Status = 1 // shard mailbox full — no prediction made
	StatusClosed      Status = 2 // engine draining or closed
	StatusBadRequest   Status = 3 // malformed or oversized request
	StatusUnsupported  Status = 4 // op not available on this engine
	StatusSpecMismatch Status = 5 // snapshot built under a different predictor spec
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBusy:
		return "busy"
	case StatusClosed:
		return "closed"
	case StatusBadRequest:
		return "bad-request"
	case StatusUnsupported:
		return "unsupported"
	case StatusSpecMismatch:
		return "spec-mismatch"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Protocol errors.
var (
	ErrBadMagic   = errors.New("serve: bad frame magic")
	ErrBadVersion = errors.New("serve: unsupported protocol version")
	ErrFrameSize  = errors.New("serve: frame exceeds maximum size")
	ErrTruncated  = errors.New("serve: truncated payload")
)

// writeFrame emits one frame. The payload may be nil.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint16(hdr[0:], protoMagic)
	hdr[2] = protoVersion
	hdr[3] = op
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into a fresh payload allocation; see
// readFrameInto for the buffer-reusing hot path.
func readFrame(r io.Reader, maxFrame int) (op byte, payload []byte, err error) {
	return readFrameInto(r, maxFrame, nil)
}

// growPayload returns a length-n byte slice backed by buf's array when
// its capacity allows, allocating a larger one otherwise. Callers must
// have length-checked n against the applicable frame cap already.
func growPayload(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}

// readFrameInto reads one frame, enforcing the magic, version and
// frame size bound, reusing buf as payload storage: the returned
// payload aliases buf when it fits and replaces it otherwise, so
// callers keep the returned slice as their scratch for the next call.
// The payload is only valid until that next call. maxFrame <= 0
// selects DefaultMaxFrame.
func readFrameInto(r io.Reader, maxFrame int, buf []byte) (op byte, payload []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if binary.BigEndian.Uint16(hdr[0:]) != protoMagic {
		return 0, nil, ErrBadMagic
	}
	if hdr[2] != protoVersion {
		return 0, nil, ErrBadVersion
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > uint32(maxFrame) {
		return 0, nil, ErrFrameSize
	}
	payload = growPayload(buf, int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[3], payload, nil
}

// --- payload encoding -------------------------------------------------

func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// appendPredictReq appends a PredictBatch request payload to b.
func appendPredictReq(b []byte, session uint64, pcs []uint32) []byte {
	b = appendU64(b, session)
	b = appendU32(b, uint32(len(pcs)))
	for _, pc := range pcs {
		b = appendU32(b, pc)
	}
	return b
}

// encodePredictReq builds a PredictBatch request payload.
func encodePredictReq(session uint64, pcs []uint32) []byte {
	return appendPredictReq(make([]byte, 0, 12+4*len(pcs)), session, pcs)
}

func decodePredictReq(p []byte) (session uint64, pcs []uint32, err error) {
	return decodePredictReqInto(p, nil)
}

// decodePredictReqInto decodes a PredictBatch request reusing pcs's
// backing storage when its capacity suffices (allocating a larger
// slice otherwise); the returned slice replaces the caller's scratch.
func decodePredictReqInto(p []byte, pcs []uint32) (session uint64, out []uint32, err error) {
	if len(p) < 12 {
		return 0, nil, ErrTruncated
	}
	session = binary.BigEndian.Uint64(p)
	n := binary.BigEndian.Uint32(p[8:])
	body := p[12:]
	if uint64(len(body)) != 4*uint64(n) {
		return 0, nil, ErrTruncated
	}
	if cap(pcs) >= int(n) {
		out = pcs[:n]
	} else {
		out = make([]uint32, n)
	}
	for i := range out {
		out[i] = binary.BigEndian.Uint32(body[4*i:])
	}
	return session, out, nil
}

// appendEventReq appends an UpdateBatch or RunBatch request payload
// to b.
func appendEventReq(b []byte, session uint64, events []trace.Event) []byte {
	b = appendU64(b, session)
	b = appendU32(b, uint32(len(events)))
	for _, e := range events {
		b = appendU32(b, e.PC)
		b = appendU32(b, e.Value)
	}
	return b
}

// encodeEventReq builds an UpdateBatch or RunBatch request payload.
func encodeEventReq(session uint64, events []trace.Event) []byte {
	return appendEventReq(make([]byte, 0, 12+8*len(events)), session, events)
}

func decodeEventReq(p []byte) (session uint64, events []trace.Event, err error) {
	return decodeEventReqInto(p, nil)
}

// decodeEventReqInto decodes an UpdateBatch/RunBatch request reusing
// events's backing storage when its capacity suffices (allocating a
// larger slice otherwise); the returned slice replaces the caller's
// scratch.
func decodeEventReqInto(p []byte, events []trace.Event) (session uint64, out []trace.Event, err error) {
	if len(p) < 12 {
		return 0, nil, ErrTruncated
	}
	session = binary.BigEndian.Uint64(p)
	n := binary.BigEndian.Uint32(p[8:])
	body := p[12:]
	if uint64(len(body)) != 8*uint64(n) {
		return 0, nil, ErrTruncated
	}
	if cap(events) >= int(n) {
		out = events[:n]
	} else {
		out = make([]trace.Event, n)
	}
	for i := range out {
		out[i].PC = binary.BigEndian.Uint32(body[8*i:])
		out[i].Value = binary.BigEndian.Uint32(body[8*i+4:])
	}
	return session, out, nil
}

// encodeRestoreReq builds a RestoreSession request payload: the
// addressed session ID followed by the encoded snapshot file.
func encodeRestoreReq(session uint64, blob []byte) []byte {
	b := make([]byte, 0, 8+len(blob))
	b = appendU64(b, session)
	return append(b, blob...)
}

// decodeRestoreReq splits a RestoreSession payload. The blob aliases
// the input; the snapshot decoder validates its structure (and bounds
// every section before allocating).
func decodeRestoreReq(p []byte) (session uint64, blob []byte, err error) {
	if len(p) < 8 {
		return 0, nil, ErrTruncated
	}
	return binary.BigEndian.Uint64(p), p[8:], nil
}

// encodeSessionReq builds a ResetSession request payload.
func encodeSessionReq(session uint64) []byte {
	return appendU64(make([]byte, 0, 8), session)
}

func decodeSessionReq(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, ErrTruncated
	}
	return binary.BigEndian.Uint64(p), nil
}

// appendPredictResp appends a PredictBatch response payload to b.
// values is ignored unless st is StatusOK.
func appendPredictResp(b []byte, st Status, values []uint32) []byte {
	b = append(b, byte(st))
	if st != StatusOK {
		return b
	}
	b = appendU32(b, uint32(len(values)))
	for _, v := range values {
		b = appendU32(b, v)
	}
	return b
}

// encodePredictResp builds a PredictBatch response payload. values is
// ignored unless st is StatusOK.
func encodePredictResp(st Status, values []uint32) []byte {
	return appendPredictResp(make([]byte, 0, 5+4*len(values)), st, values)
}

func decodePredictResp(p []byte) (Status, []uint32, error) {
	return decodePredictRespInto(p, nil)
}

// decodePredictRespInto decodes a PredictBatch response reusing
// values's backing storage when its capacity suffices (allocating a
// larger slice otherwise); the returned slice replaces the caller's
// scratch.
func decodePredictRespInto(p []byte, values []uint32) (Status, []uint32, error) {
	if len(p) < 1 {
		return 0, nil, ErrTruncated
	}
	st := Status(p[0])
	if st != StatusOK {
		return st, nil, nil
	}
	if len(p) < 5 {
		return 0, nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(p[1:])
	body := p[5:]
	if uint64(len(body)) != 4*uint64(n) {
		return 0, nil, ErrTruncated
	}
	var out []uint32
	if cap(values) >= int(n) {
		out = values[:n]
	} else {
		out = make([]uint32, n)
	}
	for i := range out {
		out[i] = binary.BigEndian.Uint32(body[4*i:])
	}
	return st, out, nil
}

// appendStatusResp appends a status-only response payload to b.
func appendStatusResp(b []byte, st Status) []byte { return append(b, byte(st)) }

// encodeStatusResp builds a status-only response payload.
func encodeStatusResp(st Status) []byte { return []byte{byte(st)} }

func decodeStatusResp(p []byte) (Status, error) {
	if len(p) != 1 {
		return 0, ErrTruncated
	}
	return Status(p[0]), nil
}

// appendRunResp appends a RunBatch response payload to b.
func appendRunResp(b []byte, st Status, hits uint32) []byte {
	b = append(b, byte(st))
	if st != StatusOK {
		return b
	}
	return appendU32(b, hits)
}

// encodeRunResp builds a RunBatch response payload.
func encodeRunResp(st Status, hits uint32) []byte {
	return appendRunResp(make([]byte, 0, 5), st, hits)
}

func decodeRunResp(p []byte) (Status, uint32, error) {
	if len(p) < 1 {
		return 0, 0, ErrTruncated
	}
	st := Status(p[0])
	if st != StatusOK {
		return st, 0, nil
	}
	if len(p) != 5 {
		return 0, 0, ErrTruncated
	}
	return st, binary.BigEndian.Uint32(p[1:]), nil
}

// appendStatsResp appends a Stats response payload to b.
func appendStatsResp(b []byte, st Status, body []byte) []byte {
	b = append(b, byte(st))
	return append(b, body...)
}

// encodeStatsResp builds a Stats response payload around a JSON body.
func encodeStatsResp(st Status, body []byte) []byte {
	return appendStatsResp(make([]byte, 0, 1+len(body)), st, body)
}

func decodeStatsResp(p []byte) (Status, []byte, error) {
	if len(p) < 1 {
		return 0, nil, ErrTruncated
	}
	return Status(p[0]), p[1:], nil
}

// appendSnapshotResp appends a SnapshotSession response payload to b.
// blob is ignored unless st is StatusOK.
func appendSnapshotResp(b []byte, st Status, blob []byte) []byte {
	b = append(b, byte(st))
	if st != StatusOK {
		return b
	}
	return append(b, blob...)
}

// encodeSnapshotResp builds a SnapshotSession response payload around
// the encoded snapshot file bytes. blob is ignored unless st is
// StatusOK.
func encodeSnapshotResp(st Status, blob []byte) []byte {
	return appendSnapshotResp(make([]byte, 0, 1+len(blob)), st, blob)
}

func decodeSnapshotResp(p []byte) (Status, []byte, error) {
	if len(p) < 1 {
		return 0, nil, ErrTruncated
	}
	st := Status(p[0])
	if st != StatusOK {
		return st, nil, nil
	}
	return st, p[1:], nil
}

// --- server-side frame API (shared with the cluster router) ----------

// ReadRequestFrame reads one request frame with the server-side cap
// discipline shared by the vpserve server and the vprouter proxy:
// maxFrame (<= 0 selects DefaultMaxFrame) bounds ordinary request
// payloads, while RestoreSession requests — which carry a snapshot
// blob — are always allowed up to MaxSnapshotFrame. A frame declaring
// a payload beyond its cap but within MaxSnapshotFrame is drained and
// reported oversized=true, so the caller can answer StatusBadRequest
// on a still-synchronized connection. Only a frame beyond
// MaxSnapshotFrame, which no VP1 peer legitimately sends, is an error.
func ReadRequestFrame(r io.Reader, maxFrame int) (op byte, payload []byte, oversized bool, err error) {
	return ReadRequestFrameBuf(r, maxFrame, nil)
}

// ReadRequestFrameBuf is ReadRequestFrame reusing buf as payload
// storage: the returned payload aliases buf when it fits and replaces
// it otherwise, so a connection loop keeps the returned slice as its
// scratch for the next frame. The payload is only valid until that
// next call.
func ReadRequestFrameBuf(r io.Reader, maxFrame int, buf []byte) (op byte, payload []byte, oversized bool, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, false, err
	}
	if binary.BigEndian.Uint16(hdr[0:]) != protoMagic {
		return 0, nil, false, ErrBadMagic
	}
	if hdr[2] != protoVersion {
		return 0, nil, false, ErrBadVersion
	}
	op = hdr[3]
	n := binary.BigEndian.Uint32(hdr[4:])
	limit := maxFrame
	if op == OpRestoreSession && limit < MaxSnapshotFrame {
		limit = MaxSnapshotFrame
	}
	if uint64(n) > uint64(limit) {
		if uint64(n) > uint64(MaxSnapshotFrame) {
			return 0, nil, false, ErrFrameSize
		}
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			return 0, nil, false, err
		}
		return op, nil, true, nil
	}
	payload = growPayload(buf, int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, false, err
	}
	return op, payload, false, nil
}

// WriteResponseFrame emits the response frame for op — the op byte
// with the response flag set — around an already-encoded payload.
func WriteResponseFrame(w io.Writer, op byte, payload []byte) error {
	return writeFrame(w, op|respFlag, payload)
}

// StatusResponse encodes a status-only response payload. Every VP1
// response decoder accepts a one-byte payload for a non-OK status, so
// this is the universal error answer for any op — the cluster router
// uses it when a backend is unreachable or a frame was oversized.
func StatusResponse(st Status) []byte { return encodeStatusResp(st) }

// StatsResponse encodes a Stats response payload around a JSON body.
func StatsResponse(body []byte) []byte { return encodeStatsResp(StatusOK, body) }

// RequestSession extracts the session ID a request payload addresses,
// without decoding the rest — how the cluster router picks a backend
// for a frame it otherwise forwards opaquely. ok is false for ops that
// carry no session (Stats) and for payloads too short to hold one.
func RequestSession(op byte, payload []byte) (session uint64, ok bool) {
	switch op {
	case OpPredictBatch, OpUpdateBatch, OpRunBatch, OpResetSession, OpSnapshotSession, OpRestoreSession:
		if len(payload) < 8 {
			return 0, false
		}
		return binary.BigEndian.Uint64(payload), true
	}
	return 0, false
}
