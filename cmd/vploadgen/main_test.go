package main

import (
	"flag"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// startServer boots an in-process vpserve equivalent on a loopback
// port for the given predictor spec.
func startServer(t *testing.T, spec core.Spec) string {
	t.Helper()
	engine, err := serve.NewEngine(serve.Config{Shards: 2, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(engine, serve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// writeTempTrace serializes tr to a temp VTR1 file.
func writeTempTrace(t *testing.T, tr trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "load.vtr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func sampleTrace(n int) trace.Trace {
	body := workload.LoopBody(0x1000, 2, 6, 4, 2)
	return workload.Interleave(body, (n+13)/14)[:n]
}

// TestEndToEndEquivalence is the acceptance-criteria test: replaying
// a trace file through vploadgen → vpserve (single session) reports
// the same hit count as the offline run (cmd/vpredict's core.Run)
// with the same predictor spec.
func TestEndToEndEquivalence(t *testing.T) {
	spec := core.Spec{Kind: "dfcm", L1: 10, L2: 10}
	events := sampleTrace(8000)
	path := writeTempTrace(t, events)

	offline, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Run(offline, events)

	addr := startServer(t, spec)
	rep, err := runLoad(&loadConfig{
		addr: addr, traceFile: path, events: len(events),
		conns: 1, batch: 64, mode: "run", sessionBase: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != want.Predictions {
		t.Errorf("served %d events, offline %d", rep.Events, want.Predictions)
	}
	if rep.Hits != want.Correct {
		t.Errorf("served replay: %d hits, offline %d", rep.Hits, want.Correct)
	}
	if rep.Throughput <= 0 {
		t.Errorf("throughput %v", rep.Throughput)
	}
	if rep.P50 <= 0 || rep.P50 > rep.P95 || rep.P95 > rep.P99 {
		t.Errorf("latency percentiles out of order: p50=%v p95=%v p99=%v",
			rep.P50, rep.P95, rep.P99)
	}
}

// TestSplitModeMultiConn drives the interleaved predict/update path
// over several concurrent connections; with batch size 1 every
// session must match the offline run.
func TestSplitModeMultiConn(t *testing.T) {
	spec := core.Spec{Kind: "stride", L1: 10}
	events := sampleTrace(1000)
	path := writeTempTrace(t, events)

	offline, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Run(offline, events).Correct

	addr := startServer(t, spec)
	const conns = 3
	rep, err := runLoad(&loadConfig{
		addr: addr, traceFile: path, events: len(events),
		conns: conns, batch: 1, mode: "split", sessionBase: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hits != conns*want {
		t.Errorf("split replay over %d conns: %d hits, want %d", conns, rep.Hits, conns*want)
	}
}

func TestRunLoadSyntheticWorkload(t *testing.T) {
	addr := startServer(t, core.Spec{Kind: "lvp", L1: 10})
	rep, err := runLoad(&loadConfig{
		addr: addr, workload: "const=3,rand=1", events: 2000,
		conns: 2, batch: 100, mode: "run", sessionBase: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 4000 {
		t.Errorf("events = %d, want 4000", rep.Events)
	}
	if rep.Hits == 0 {
		t.Error("constant-heavy workload scored zero hits")
	}
}

func TestParseWorkload(t *testing.T) {
	nc, ns, ny, nr, err := parseWorkload("const=2,stride=6,cycle=4,rand=2")
	if err != nil || nc != 2 || ns != 6 || ny != 4 || nr != 2 {
		t.Errorf("got %d/%d/%d/%d, err %v", nc, ns, ny, nr, err)
	}
	if _, _, _, _, err := parseWorkload("const=2,bogus=1"); err == nil {
		t.Error("unknown class accepted")
	}
	if _, _, _, _, err := parseWorkload("const"); err == nil {
		t.Error("missing count accepted")
	}
	if _, _, _, _, err := parseWorkload("const=x"); err == nil {
		t.Error("non-numeric count accepted")
	}
	if _, _, _, _, err := parseWorkload("const=0"); err == nil {
		t.Error("empty loop body accepted")
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ds, 50); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := percentile(ds, 99); got != 10 {
		t.Errorf("p99 = %d, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
	if got := percentile([]time.Duration{7}, 99); got != 7 {
		t.Errorf("singleton p99 = %d, want 7", got)
	}
}

func TestRunLoadArgErrors(t *testing.T) {
	if _, err := runLoad(&loadConfig{conns: 0, batch: 1, events: 10}); err == nil {
		t.Error("conns=0 accepted")
	}
	if _, err := runLoad(&loadConfig{conns: 1, batch: 1, events: 0}); err == nil {
		t.Error("events=0 accepted")
	}
	if _, err := runLoad(&loadConfig{conns: 1, batch: 1, events: 10, traceFile: "/nonexistent.vtr"}); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestFlagDefaultsParse(t *testing.T) {
	fs := flag.NewFlagSet("vploadgen", flag.ContinueOnError)
	c := parseFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.mode != "run" || c.conns != 1 || c.batch != 64 {
		t.Errorf("defaults: %+v", c)
	}
}

// startRouter fronts the given backends with an in-process
// cmd/vprouter equivalent and returns the router, its VP1 address,
// and its admin HTTP URL.
func startRouter(t *testing.T, backends ...string) (*cluster.Router, string, string) {
	t.Helper()
	r, err := cluster.NewRouter(cluster.Config{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.Serve(ln) }()
	admin := httptest.NewServer(r.AdminHandler())
	t.Cleanup(func() {
		admin.Close()
		r.Close()
	})
	return r, ln.Addr().String(), admin.URL
}

// TestClusterSmokeMigration is the cluster integration smoke: two
// backends behind a router, vploadgen traffic over several sessions,
// and a forced live migration mid-traffic. Zero loss means the total
// hit count still matches conns × the offline run exactly, and the
// admin stats attribute the load per backend.
func TestClusterSmokeMigration(t *testing.T) {
	spec := core.Spec{Kind: "dfcm", L1: 10, L2: 10}
	b1 := startServer(t, spec)
	b2 := startServer(t, spec)
	r, raddr, adminURL := startRouter(t, b1, b2)

	events := sampleTrace(20000)
	path := writeTempTrace(t, events)
	offline, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Run(offline, events).Correct

	before, err := fetchRouterStats(adminURL)
	if err != nil {
		t.Fatalf("router admin before run: %v", err)
	}

	const conns = 4
	migrated := make(chan error, 1)
	go func() {
		// Bounce session 1 to both backends while its replay runs: one
		// of the two moves is a real snapshot → restore migration.
		time.Sleep(30 * time.Millisecond)
		if err := r.MigrateSession(1, b2); err != nil {
			migrated <- err
			return
		}
		migrated <- r.MigrateSession(1, b1)
	}()
	rep, err := runLoad(&loadConfig{
		addr: raddr, traceFile: path, events: len(events),
		conns: conns, batch: 64, mode: "run", sessionBase: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-migrated; err != nil {
		t.Fatalf("mid-traffic migration: %v", err)
	}
	if rep.Hits != conns*want {
		t.Errorf("migrated replay over %d conns: %d hits, offline %d each (want %d total)",
			conns, rep.Hits, want, conns*want)
	}
	if got := r.Stats().Migrations; got != 2 {
		t.Errorf("router reports %d migrations, want 2", got)
	}

	after, err := fetchRouterStats(adminURL)
	if err != nil {
		t.Fatalf("router admin after run: %v", err)
	}
	if after.Sessions != conns {
		t.Errorf("router routed %d sessions, want %d", after.Sessions, conns)
	}
	var delta uint64
	for i, b := range after.Backends {
		delta += b.Requests - before.Backends[i].Requests
	}
	if wantReqs := rep.Events / 64; delta < wantReqs {
		t.Errorf("backends absorbed %d requests, want ≥ %d", delta, wantReqs)
	}
	out := formatBackendLoad(before, after)
	for _, addr := range []string{b1, b2} {
		if !strings.Contains(out, addr) {
			t.Errorf("per-backend load report is missing %s:\n%s", addr, out)
		}
	}
}
