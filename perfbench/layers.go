package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
)

// coreKinds are the predictor kinds whose concrete RunBatch loops the
// core probe times, each built by core.Spec at vpserve's default sizes.
var coreKinds = []string{"lvp", "stride", "2delta", "fcm", "dfcm", "hybrid", "tage"}

const (
	coreProbeEvents = 1 << 20 // events per kind, spread over the workload's traces
	coreChunk       = 4096    // the sweep engine's replay chunk
)

// ledgerRows are the layer ledger's rows in stacking order: each row
// adds exactly one layer to the row above it.
var ledgerRows = []string{"core.dfcm", "serve_engine", "serve_wire", "router"}

// ledgerSizes are the ledger's frame sizes in events, and ledgerFrames
// how many frames of each size go through every row.
var (
	ledgerSizes  = []int{64, 2048}
	ledgerFrames = map[int]int{64: 8000, 2048: 1000}
)

// probeLayers runs the core and ledger probes over traces.
func probeLayers(out *outcome, log *spanLog, traces []namedTrace) error {
	if err := coreProbe(out, log, traces); err != nil {
		return err
	}
	for _, size := range ledgerSizes {
		if err := ledger(out, log, traces, size, ledgerFrames[size]); err != nil {
			return err
		}
	}
	return nil
}

// coreProbe times each kind's concrete RunBatch over an equal prefix of
// every trace, in engine-sized chunks, from a fresh predictor.
func coreProbe(out *outcome, log *spanLog, traces []namedTrace) error {
	per := coreProbeEvents / len(traces)
	for ki, kind := range coreKinds {
		p, err := core.Spec{Kind: kind, L1: serveSpec.L1, L2: serveSpec.L2}.New()
		if err != nil {
			return err
		}
		br, ok := p.(core.BatchRunner)
		if !ok {
			return fmt.Errorf("core %s: no concrete RunBatch", kind)
		}
		var events int
		var ns int64
		for _, t := range traces {
			tr := t.tr[:min(per, len(t.tr))]
			t0 := time.Now()
			for off := 0; off < len(tr); off += coreChunk {
				br.RunBatch(tr[off:min(off+coreChunk, len(tr))])
			}
			t1 := time.Now()
			ns += int64(t1.Sub(t0))
			log.add(uint64(ki), "core."+kind+".RunBatch", -1, t0, t1)
			events += len(tr)
		}
		out.set("core."+kind+".ns_per_event", float64(ns)/float64(events))
	}
	return nil
}

// ledgerFramesOf cuts n frames of size events from traces, round-robin
// across traces and consecutive within each, wrapping at a trace's end.
func ledgerFramesOf(traces []namedTrace, size, n int) [][]trace.Event {
	frames := make([][]trace.Event, n)
	for k := range frames {
		tr := traces[k%len(traces)].tr
		off := (k / len(traces) * size) % (len(tr) - size + 1)
		frames[k] = tr[off : off+size]
	}
	return frames
}

// ledger pushes the same frames through each row in turn, each row
// with fresh predictor state, as RunBatch requests: the predictor's own
// loop, Engine.RunBatch, a Client to a Server on loopback, and a Client
// to a Router in front of a Server. It reports each row's median
// per-frame time; consecutive rows differ by exactly one layer. Every
// row must count the same hits.
func ledger(out *outcome, log *spanLog, traces []namedTrace, size, n int) error {
	frames := ledgerFramesOf(traces, size, n)
	session := uint64(size)

	p, err := serveSpec.New()
	if err != nil {
		return err
	}
	dfcm := p.(*core.DFCM)
	eng, err := serve.NewEngine(serve.Config{Spec: serveSpec})
	if err != nil {
		return err
	}
	defer eng.Close()

	// Row 3 is a client on a bare server; row 4 the same through a
	// router, configured as serve-split's.
	wire := &rig{}
	defer wire.close()
	srv, addr, err := wire.startServer(0)
	if err != nil {
		return err
	}
	wire.servers = append(wire.servers, srv)
	wc, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	wire.clients = append(wire.clients, wc)
	routed, err := startRig(1, 1, 0)
	if err != nil {
		return err
	}
	defer routed.close()

	push := map[string]func([]trace.Event) (uint32, error){
		"core.dfcm": func(f []trace.Event) (uint32, error) {
			return uint32(dfcm.RunBatch(f).Correct), nil
		},
		"serve_engine": func(f []trace.Event) (uint32, error) {
			hits, st := eng.RunBatch(session, f)
			return hits, statusErr(st)
		},
		"serve_wire": func(f []trace.Event) (uint32, error) {
			hits, st, err := wc.RunBatch(session, f)
			if err != nil {
				return 0, err
			}
			return hits, statusErr(st)
		},
		"router": func(f []trace.Event) (uint32, error) {
			hits, st, err := routed.clients[0].RunBatch(session, f)
			if err != nil {
				return 0, err
			}
			return hits, statusErr(st)
		},
	}
	var firstHits uint64
	for ri, row := range ledgerRows {
		us := make([]float64, len(frames))
		var hits uint64
		failed := 0
		name, fn := fmt.Sprintf("ledger.%s.frame%d", row, size), push[row]
		for k, f := range frames {
			t0 := time.Now()
			h, err := fn(f)
			t1 := time.Now()
			us[k] = float64(t1.Sub(t0)) / 1e3
			log.add(uint64(k), name, -1, t0, t1)
			if err != nil {
				failed++
				continue
			}
			hits += uint64(h)
		}
		if ri == 0 {
			firstHits = hits
		}
		if hits != firstHits {
			failed++
			out.logf("FAIL ledger %s frame%d: %d hits, %s counted %d", row, size, hits, ledgerRows[0], firstHits)
		}
		out.count(len(frames)+1, failed)
		med := median(us)
		out.set(fmt.Sprintf("%s.frame%d_us", row, size), med)
		out.logf("ledger %-13s frame%-5d median %9.2fus over %d frames, %d hits", row, size, med, len(frames), hits)
	}
	return nil
}

func statusErr(st serve.Status) error {
	if st != serve.StatusOK {
		return fmt.Errorf("status %v", st)
	}
	return nil
}
