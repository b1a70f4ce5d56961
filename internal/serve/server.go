package serve

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/trace"
)

// ServerConfig parameterizes a Server. The zero value selects sane
// defaults.
type ServerConfig struct {
	// ReadTimeout bounds the wait for the next request frame on a
	// connection; an idle connection past it is closed. 0 selects 60s.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response frame. 0 selects 10s.
	WriteTimeout time.Duration
	// MaxFrame bounds request payload size (RestoreSession frames may
	// reach MaxSnapshotFrame). An oversized frame is drained and
	// answered StatusBadRequest on the still-open connection; only a
	// frame beyond MaxSnapshotFrame closes it. 0 selects
	// DefaultMaxFrame.
	MaxFrame int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 60 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	return c
}

// Server accepts VP1 protocol connections and dispatches their frames
// to an Engine.
type Server struct {
	engine *Engine
	cfg    ServerConfig

	mu       sync.Mutex
	ln       net.Listener          // vplint:guardedby mu
	conns    map[net.Conn]struct{} // vplint:guardedby mu
	draining bool                  // vplint:guardedby mu
	closed   bool                  // vplint:guardedby mu
	connWG   sync.WaitGroup
}

// NewServer wraps engine in a server. The engine's lifecycle belongs
// to the server from here on: Shutdown/Close close it.
func NewServer(engine *Engine, cfg ServerConfig) *Server {
	return &Server{
		engine: engine,
		cfg:    cfg.withDefaults(),
		conns:  make(map[net.Conn]struct{}),
	}
}

// Engine returns the wrapped engine (for stats handlers and tests).
func (s *Server) Engine() *Engine { return s.engine }

// Serve accepts connections on ln until Shutdown or Close. It always
// returns a non-nil error; after a clean shutdown the error is
// net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		_ = ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// connScratch is one connection's reusable hot-path buffers: the
// request frame payload, the decoded batch, the prediction output and
// the encoded response all live here, so a steady-state
// PredictBatch/RunBatch frame allocates nothing. The buffers are
// owned by the connection goroutine; each is valid until the next
// frame on the same connection (the response is fully written and
// flushed before the next read starts, so reuse never overlaps a
// pending write).
type connScratch struct {
	frame  []byte        // request payload (ReadRequestFrameBuf)
	events []trace.Event // decoded UpdateBatch/RunBatch events
	pcs    []uint32      // decoded PredictBatch PCs
	values []uint32      // engine prediction output
	resp   []byte        // encoded response payload
}

// serveConn runs one connection's request loop.
func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	sc := &connScratch{}
	for {
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
			return // connection already dead
		}
		op, payload, oversized, err := ReadRequestFrameBuf(br, s.cfg.MaxFrame, sc.frame)
		if err != nil {
			// EOF, timeout, insane frame size or malformed header: drop
			// the connection. The framing carries no frame IDs, so there
			// is no way to resynchronize a corrupted stream.
			return
		}
		if payload != nil {
			sc.frame = payload
		}
		var respPayload []byte
		if oversized {
			// The declared payload exceeded the cap but was drained in
			// full, so the stream is still synchronized: answer a clean
			// status instead of dropping the connection.
			respPayload = appendStatusResp(sc.resp[:0], StatusBadRequest)
		} else {
			respPayload = s.dispatch(op, payload, sc)
		}
		sc.resp = respPayload
		if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
			return
		}
		if err := writeFrame(bw, op|respFlag, respPayload); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// dispatch decodes one request, runs it on the engine, and encodes
// the response payload into sc.resp's storage (the returned slice is
// rooted there; serveConn stores it back as the next frame's
// scratch). Malformed payloads produce StatusBadRequest rather than
// killing the connection: the frame boundary is intact, so the stream
// remains synchronized.
func (s *Server) dispatch(op byte, payload []byte, sc *connScratch) []byte {
	resp := sc.resp[:0]
	switch op {
	case OpPredictBatch:
		session, pcs, err := decodePredictReqInto(payload, sc.pcs)
		if err != nil {
			return appendPredictResp(resp, StatusBadRequest, nil)
		}
		sc.pcs = pcs
		values, st := s.engine.PredictBatchAppend(session, pcs, sc.values)
		if values != nil {
			sc.values = values
		}
		return appendPredictResp(resp, st, values)
	case OpUpdateBatch:
		session, events, err := decodeEventReqInto(payload, sc.events)
		if err != nil {
			return appendStatusResp(resp, StatusBadRequest)
		}
		sc.events = events
		return appendStatusResp(resp, s.engine.UpdateBatch(session, events))
	case OpRunBatch:
		session, events, err := decodeEventReqInto(payload, sc.events)
		if err != nil {
			return appendRunResp(resp, StatusBadRequest, 0)
		}
		sc.events = events
		hits, st := s.engine.RunBatch(session, events)
		return appendRunResp(resp, st, hits)
	case OpStats:
		return appendStatsResp(resp, StatusOK, s.engine.StatsJSON())
	case OpResetSession:
		session, err := decodeSessionReq(payload)
		if err != nil {
			return appendStatusResp(resp, StatusBadRequest)
		}
		return appendStatusResp(resp, s.engine.ResetSession(session))
	case OpSnapshotSession:
		session, err := decodeSessionReq(payload)
		if err != nil {
			return appendSnapshotResp(resp, StatusBadRequest, nil)
		}
		blob, st := s.engine.SnapshotSession(session)
		return appendSnapshotResp(resp, st, blob)
	case OpRestoreSession:
		session, blob, err := decodeRestoreReq(payload)
		if err != nil {
			return appendStatusResp(resp, StatusBadRequest)
		}
		return appendStatusResp(resp, s.engine.RestoreSession(session, blob))
	default:
		return appendStatusResp(resp, StatusBadRequest)
	}
}

// Shutdown drains the server gracefully: stop accepting, keep serving
// connected clients until they disconnect or ctx expires, then force
// the stragglers closed and stop the engine.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close() // Serve's Accept surfaces the close
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.mu.Unlock()
		<-done
	}

	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.engine.Close()
	return err
}

// Close shuts the server down immediately: connections are closed
// without waiting for them to go idle.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// StatsHandler serves the engine's stats snapshot as JSON — an
// expvar-style endpoint for the optional HTTP listener.
func StatsHandler(e *Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(e.StatsJSON())
	})
}
