package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/progs"
	"repro/internal/serve"
	"repro/internal/trace"
)

const (
	frameEvents  = 64                     // events per PredictBatch/UpdateBatch frame
	rateWindow   = 100 * time.Millisecond // events_per_s is the median rate over these windows
	cpuPerEvents = 1_000_000              // serve-split's cpu_s is CPU seconds per this many served events
	probeLoad    = 2 * time.Second        // serving probe length in offline traced runs
)

// serveSpec is vpserve's default predictor spec.
var serveSpec = core.Spec{Kind: "dfcm", L1: 16, L2: 12}

// serving drives the routed serving path: one cluster.Router with
// health probing at vprouter's defaults in front of in-process
// serve.Engine+serve.Server backends, loaded by a closed loop of
// client connections that serve sessions round-robin.
type serving struct {
	sessions int
	conns    int
	backends int
	budget   uint64 // instruction budget of the programs sessions slice
	sliceLen int    // events per session slice, a multiple of frameEvents
	setups   int    // set-up repetitions; setup_s is their median
	// oracle returns the hits a session must have seen after frames
	// frames; nil selects oracleHits.
	oracle func(s *session, frames int) (uint64, error)
}

// serveSplit's load comes from one process with no more client
// connections than CPUs.
var serveSplit = serving{sessions: 64, conns: min(2, runtime.NumCPU()), backends: 2, budget: 1_000_000, sliceLen: 32768, setups: 11}

// session is one client session's input: its ID and a slice of a SPEC
// stand-in trace, replayed cyclically in frames.
type session struct {
	id     uint64
	bench  string
	offset int
	events []trace.Event
	pcs    []uint32
}

// frame returns the events and PCs of the session's k-th frame.
func (s *session) frame(k int) ([]trace.Event, []uint32) {
	off := (k * frameEvents) % len(s.events)
	return s.events[off : off+frameEvents], s.pcs[off : off+frameEvents]
}

// namedTrace is one input trace of a workload.
type namedTrace struct {
	name string
	tr   trace.Trace
}

// makeSessions draws n sessions from seed: each gets a distinct random
// ID (its ring placement), a program and an offset into its trace.
func makeSessions(seed uint64, n, sliceLen int, traces []namedTrace) ([]*session, error) {
	rng := newRNG(seed)
	seen := make(map[uint64]bool)
	out := make([]*session, n)
	for i := range out {
		id := rng.next()
		for id == 0 || seen[id] {
			id = rng.next()
		}
		seen[id] = true
		t := traces[rng.intn(len(traces))]
		if len(t.tr) < sliceLen {
			return nil, fmt.Errorf("trace %s has %d events, fewer than a %d-event slice", t.name, len(t.tr), sliceLen)
		}
		off := rng.intn(len(t.tr) - sliceLen + 1)
		s := &session{id: id, bench: t.name, offset: off, events: t.tr[off : off+sliceLen]}
		s.pcs = make([]uint32, sliceLen)
		for j, e := range s.events {
			s.pcs[j] = e.PC
		}
		out[i] = s
	}
	return out, nil
}

// specTraces generates every SPEC stand-in's trace at budget, recording
// one vm.TraceFor span each on log.
func specTraces(budget uint64, log *spanLog) ([]namedTrace, error) {
	var out []namedTrace
	for i, b := range progs.SPECNames() {
		t0 := time.Now()
		tr, err := progs.TraceFor(b, budget)
		log.add(uint64(i), "vm.TraceFor", -1, t0, time.Now())
		if err != nil {
			return nil, err
		}
		out = append(out, namedTrace{b, tr})
	}
	return out, nil
}

// measure implements workload.
func (w serving) measure(o options) (*outcome, error) {
	out := newOutcome()
	var log *spanLog
	if o.trace {
		log = newSpanLog(time.Now())
	}
	traces, err := specTraces(w.budget, log)
	if err != nil {
		return nil, err
	}
	sessions, err := makeSessions(o.seed, w.sessions, w.sliceLen, traces)
	if err != nil {
		return nil, err
	}
	events := eventCount(traces)
	out.logf("workload serve-split: %d sessions over %d conns, %d backends, spec %+v", w.sessions, w.conns, w.backends, serveSpec)
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		out.set("vm.events", float64(events))
		return out, w.traced(o, out, log, sessions, dur)
	}

	res, err := w.load(sessions, dur, basePort(o.seed), nil)
	if err != nil {
		return nil, err
	}
	w.account(out, "serve", res)
	p50, n, err := percentile(res.predictUS, 0.5)
	if err != nil {
		return nil, err
	}
	rates := windowRates(res.ends, frameEvents, int64(rateWindow), res.span)
	out.set("setup_s", median(res.setups))
	out.set("wall_s", median(res.rounds))
	out.set("cpu_s", res.reading.CPU/float64(len(res.ends)*frameEvents)*cpuPerEvents)
	out.set("peak_rss_mb", peakRSSMB())
	out.set("events_per_s", median(rates))
	out.set("rtt_p50_us", p50)
	out.logf("rtt_p50_us %.2f over %d PredictBatch samples; %d rate windows; %d rounds; setups %v",
		p50, n, len(rates), len(res.rounds), res.setups)
	return out, nil
}

// traced is serve-split's per-layer run: an untraced load as the
// overhead base, a traced load for the serving layers, then the sweep
// engine over the same programs and the core and ledger probes over
// the session slices.
func (w serving) traced(o options, out *outcome, log *spanLog, sessions []*session, dur time.Duration) error {
	dur0, _ := totals(log.spans)
	base, err := w.load(sessions, dur, basePort(o.seed), nil)
	if err != nil {
		return err
	}
	w.account(out, "serve.untraced", base)
	res, err := w.load(sessions, dur, basePort(o.seed), log)
	if err != nil {
		return err
	}
	w.account(out, "serve.traced", res)
	if err := serveLayers(out, res); err != nil {
		return err
	}
	baseRate := median(windowRates(base.ends, frameEvents, int64(rateWindow), base.span))
	rate := median(windowRates(res.ends, frameEvents, int64(rateWindow), res.span))
	out.set("trace.overhead_frac", baseRate/rate-1)

	benches := map[string]bool{}
	for _, s := range sessions {
		benches[s.bench] = true
	}
	var used []string
	for _, b := range progs.SPECNames() {
		if benches[b] {
			used = append(used, b)
		}
	}
	if err := w.sweepProbe(out, log, used); err != nil {
		return err
	}
	out.set("vm.trace_s", float64(dur0["vm.TraceFor"])/1e9)
	slices := make([]namedTrace, len(sessions))
	for i, s := range sessions {
		slices[i] = namedTrace{s.bench, s.events}
	}
	if err := probeLayers(out, log, slices); err != nil {
		return err
	}
	return out.logSpans("spans-serve-split.tsv", log.spans)
}

// sweepProbe replays the served spec over the sessions' programs with
// the offline sweep engine, cold then warm, and renders the result as
// a table: the engine and report layers on this workload's programs.
func (w serving) sweepProbe(out *outcome, log *spanLog, benches []string) error {
	cache := engine.NewTraceCache(progs.TraceFor)
	sweep := func(id uint64) (reading, *engine.Job, error) {
		s := engine.NewSweep(engine.Options{}, cache, benches, w.budget)
		j := s.Add(func() core.Predictor {
			p, _ := serveSpec.New() // serveSpec is valid
			return p
		})
		m := startMeter()
		err := s.Run()
		r := m.stop()
		log.add(id, "engine.Sweep.Run", -1, m.wall, time.Now())
		out.region(fmt.Sprintf("sweep#%d", id), r)
		return r, j, err
	}
	cold, _, err := sweep(1)
	if err != nil {
		return err
	}
	warm, job, err := sweep(2)
	if err != nil {
		return err
	}
	t0 := time.Now()
	tab := &metrics.Table{Title: "served spec replayed offline", Headers: []string{"benchmark", "predictions", "correct", "accuracy"}}
	for _, r := range job.PerBench() {
		tab.AddRow(r.Benchmark, fmt.Sprint(r.Result.Predictions), fmt.Sprint(r.Result.Correct), metrics.F(r.Result.Accuracy()))
	}
	rendered := len(tab.String()) + len(tab.CSV())
	log.add(3, "report.render", -1, t0, time.Now())
	out.set("engine.sweep_s", warm.Wall)
	out.set("engine.cpu_util", warm.CPU/(warm.Wall*float64(runtime.GOMAXPROCS(0))))
	out.set("vm.cold_minus_warm_s", cold.Wall-warm.Wall)
	out.set("report.render_s", time.Since(t0).Seconds())
	out.logf("sweep probe over %v: cold %.3fs warm %.3fs, weighted accuracy %.4f, %d bytes rendered",
		benches, cold.Wall, warm.Wall, job.Weighted(), rendered)
	return nil
}

// serveLayers sets the serving per-layer metrics from a traced load.
func serveLayers(out *outcome, res loadResult) error {
	pp50, n, err := percentile(res.predictUS, 0.5)
	if err != nil {
		return err
	}
	up50, _, err := percentile(res.updateUS, 0.5)
	if err != nil {
		return err
	}
	p99, _, err := percentile(res.predictUS, 0.99)
	if err != nil {
		return err
	}
	var total, top uint64
	for _, p := range res.backendPreds {
		total += p
		top = max(top, p)
	}
	out.set("serve.predict_rtt_p50_us", pp50)
	out.set("serve.update_rtt_p50_us", up50)
	out.set("serve.rtt_p99_us", p99)
	out.set("serve_engine.busy_frac", float64(res.busy)/float64(max(res.frames, 1)))
	out.set("router.backend_share", float64(top)/float64(max(total, 1)))
	out.logf("serving layers over %d frames: predict p50 %.2fus p99 %.2fus, update p50 %.2fus, backend predictions %v",
		n, pp50, p99, up50, res.backendPreds)
	return nil
}

// account records a load's region and its output checks.
func (w serving) account(out *outcome, name string, res loadResult) {
	out.region(name, res.reading)
	out.count(res.frames+res.checked, res.failed+len(res.badSessions))
	for _, b := range res.badSessions {
		out.logf("FAIL %s: %s", name, b)
	}
	if res.failed > 0 {
		out.logf("FAIL %s: %d frames failed (%d busy)", name, res.failed, res.busy)
	}
}

// loadResult is what one load measured.
type loadResult struct {
	setups       []float64 // s per set-up
	reading      reading
	span         int64     // ns, length of the timed region
	frames       int       // frames attempted, set-up included
	failed, busy int       // frames with a non-OK status or transport error; StatusBusy among them
	predictUS    []float64 // PredictBatch round trips
	updateUS     []float64 // UpdateBatch round trips
	ends         []int64   // ns into the timed region at which each timed frame completed
	rounds       []float64 // s per round: one connection serving each of its sessions once
	backendPreds []uint64  // predictions per backend engine
	checked      int       // sessions checked against the oracle
	badSessions  []string
}

// sessState is a session's client-side progress; only the connection
// that owns the session touches it.
type sessState struct {
	frames int
	hits   uint64
}

// load sets the cluster up w.setups times (keeping the last), serves
// every session one warm-up frame per set-up, then runs the closed loop
// for dur and checks every session's hits against the oracle.
func (w serving) load(sessions []*session, dur time.Duration, port int, log *spanLog) (loadResult, error) {
	var res loadResult
	var rg *rig
	states := make([]sessState, len(sessions))
	for i := 0; i < w.setups; i++ {
		if rg != nil {
			rg.close()
			rg = nil
			runtime.GC()
		}
		clear(states)
		t0 := time.Now()
		var err error
		if rg, err = startRig(w.backends, w.conns, port); err != nil {
			return res, err
		}
		var out []uint32
		for si, s := range sessions {
			res.frames++
			f := serveFrame(rg.clients[si%w.conns], s, &states[si], out[:0])
			out = f.preds
			if f.err != nil {
				rg.close()
				return res, fmt.Errorf("warm-up frame: %w", f.err)
			}
			if !f.ok() {
				res.failed++
			}
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	defer rg.close()

	conns := make([]connLoad, w.conns)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range conns {
		cl := &conns[c]
		for si := c; si < len(sessions); si += w.conns {
			cl.mine = append(cl.mine, si)
		}
		if log != nil {
			cl.log = newSpanLog(log.epoch)
		}
		wg.Add(1)
		go func(client *serve.Client) {
			defer wg.Done()
			<-start
			cl.drive(client, sessions, states)
		}(rg.clients[c])
	}
	m := startMeter()
	epoch := m.wall
	for c := range conns {
		conns[c].epoch, conns[c].deadline = epoch, epoch.Add(dur)
	}
	close(start)
	wg.Wait()
	res.reading = m.stop()
	res.span = int64(dur)

	for c := range conns {
		cl := &conns[c]
		res.frames += cl.frames
		res.failed += cl.failed
		res.busy += cl.busy
		res.predictUS = append(res.predictUS, cl.predictUS...)
		res.updateUS = append(res.updateUS, cl.updateUS...)
		res.ends = append(res.ends, cl.ends...)
		res.rounds = append(res.rounds, cl.rounds...)
		log.merge(cl.log)
		if cl.err != nil {
			return res, fmt.Errorf("connection %d: %w", c, cl.err)
		}
	}
	for _, srv := range rg.servers {
		res.backendPreds = append(res.backendPreds, srv.Engine().Snapshot().Predictions)
	}
	oracle := w.oracle
	if oracle == nil {
		oracle = oracleHits
	}
	for si, s := range sessions {
		want, err := oracle(s, states[si].frames)
		if err != nil {
			return res, err
		}
		res.checked++
		if got := states[si].hits; got != want {
			res.badSessions = append(res.badSessions,
				fmt.Sprintf("session %#x (%s@%d): %d hits over %d frames, oracle %d", s.id, s.bench, s.offset, got, states[si].frames, want))
		}
	}
	sort.Strings(res.badSessions)
	return res, nil
}

// connLoad is one client connection's closed loop and what it saw.
type connLoad struct {
	mine            []int // indexes of the sessions this connection serves
	epoch, deadline time.Time
	log             *spanLog

	frames, failed, busy int
	predictUS, updateUS  []float64
	ends                 []int64
	rounds               []float64
	err                  error
}

// drive serves the connection's sessions round-robin, one frame each,
// until the deadline; a transport error ends the loop.
func (cl *connLoad) drive(client *serve.Client, sessions []*session, states []sessState) {
	var out []uint32
	for {
		rs := time.Now()
		for _, si := range cl.mine {
			st := &states[si]
			id := uint64(si)<<32 | uint64(st.frames)
			cl.frames++
			f := serveFrame(client, sessions[si], st, out[:0])
			out = f.preds
			if f.err != nil {
				cl.failed++
				cl.err = f.err
				return
			}
			if !f.ok() {
				cl.failed++
				if f.predict == serve.StatusBusy || f.update == serve.StatusBusy {
					cl.busy++
				}
			}
			cl.predictUS = append(cl.predictUS, float64(f.t1.Sub(f.t0))/1e3)
			cl.updateUS = append(cl.updateUS, float64(f.t2.Sub(f.t1))/1e3)
			cl.ends = append(cl.ends, int64(f.t2.Sub(cl.epoch)))
			if cl.log != nil {
				root := cl.log.add(id, "client.frame", -1, f.t0, f.t3)
				cl.log.add(id, "client.PredictBatch", root, f.t0, f.t1)
				cl.log.add(id, "client.UpdateBatch", root, f.t1, f.t2)
			}
			if !f.t3.Before(cl.deadline) {
				return
			}
		}
		cl.rounds = append(cl.rounds, time.Since(rs).Seconds())
	}
}

// frameResult is one served frame: statuses, timestamps around the two
// round trips (t3 after the client-side bookkeeping), and the
// prediction buffer for reuse.
type frameResult struct {
	predict, update serve.Status
	t0, t1, t2, t3  time.Time
	preds           []uint32
	err             error
}

func (f frameResult) ok() bool {
	return f.predict == serve.StatusOK && f.update == serve.StatusOK
}

// serveFrame sends session s's next frame as a PredictBatch, counts
// the client-side hits, then sends the frame's UpdateBatch.
func serveFrame(client *serve.Client, s *session, st *sessState, out []uint32) frameResult {
	var f frameResult
	evs, pcs := s.frame(st.frames)
	f.t0 = time.Now()
	f.preds, f.predict, f.err = client.PredictBatchAppend(s.id, pcs, out)
	f.t1 = time.Now()
	if f.err != nil {
		return f
	}
	f.update, f.err = client.UpdateBatch(s.id, evs)
	f.t2 = time.Now()
	if f.err != nil {
		return f
	}
	if f.predict == serve.StatusOK && len(f.preds) == len(evs) {
		for i, v := range f.preds {
			if v == evs[i].Value {
				st.hits++
			}
		}
	}
	st.frames++
	f.t3 = time.Now()
	return f
}

// oracleHits replays a session's first frames frames through a fresh
// predictor with the served semantics: predict the whole frame, then
// update with the whole frame.
func oracleHits(s *session, frames int) (uint64, error) {
	p, err := serveSpec.New()
	if err != nil {
		return 0, err
	}
	var hits uint64
	preds := make([]uint32, frameEvents)
	for k := 0; k < frames; k++ {
		evs, pcs := s.frame(k)
		for i, pc := range pcs {
			preds[i] = p.Predict(pc)
		}
		for i, e := range evs {
			if preds[i] == e.Value {
				hits++
			}
			p.Update(e.PC, e.Value)
		}
	}
	return hits, nil
}

// rig is a running cluster: backends, a router in front, and the
// client connections dialled to the router.
type rig struct {
	servers []*serve.Server
	router  *cluster.Router
	clients []*serve.Client
	wg      sync.WaitGroup // Serve loops
}

// startRig starts backends serve.Engine+serve.Server pairs with
// vpserve's default spec, a router with vprouter's default health
// probing and dialer, and conns client connections to the router.
// Backends listen from port upward: their addresses place the ring's
// virtual nodes, so fixed ports keep session placement a function of
// the session IDs alone.
func startRig(backends, conns, port int) (*rig, error) {
	r := &rig{}
	var addrs []string
	for i := 0; i < backends; i++ {
		srv, addr, err := r.startServer(port)
		if err != nil {
			r.close()
			return nil, err
		}
		r.servers = append(r.servers, srv)
		addrs = append(addrs, addr)
		port = portOf(addr) + 1
	}
	router, err := cluster.NewRouter(cluster.Config{
		Backends:       addrs,
		HealthInterval: 5 * time.Second,
		HealthFails:    3,
		Dialer:         serve.Dialer{Timeout: 10 * time.Second, Retries: 2, Backoff: 50 * time.Millisecond},
	})
	if err != nil {
		r.close()
		return nil, err
	}
	r.router = router
	addr, err := r.listen(0, router.Serve)
	if err != nil {
		r.close()
		return nil, err
	}
	for c := 0; c < conns; c++ {
		cl, err := serve.Dial(addr)
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	return r, nil
}

// startServer starts one backend listening at the first free port from
// port (any port for 0) and returns it with its address.
func (r *rig) startServer(port int) (*serve.Server, string, error) {
	eng, err := serve.NewEngine(serve.Config{Spec: serveSpec})
	if err != nil {
		return nil, "", err
	}
	srv := serve.NewServer(eng, serve.ServerConfig{})
	addr, err := r.listen(port, srv.Serve)
	if err != nil {
		_ = srv.Close()
		return nil, "", err
	}
	return srv, addr, nil
}

// listen runs serveFn on a loopback listener at the first free port
// from port (any port for 0) until the rig closes.
func (r *rig) listen(port int, serveFn func(net.Listener) error) (string, error) {
	var ln net.Listener
	var err error
	if port == 0 {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	for p := port; port > 0 && p < port+portTries; p++ {
		if ln, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p)); err == nil {
			break
		}
	}
	if err != nil {
		return "", err
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = serveFn(ln) // returns net.ErrClosed once the rig closes
	}()
	return ln.Addr().String(), nil
}

// close stops clients, router and backends, and waits for every Serve
// loop to return.
func (r *rig) close() {
	for _, c := range r.clients {
		_ = c.Close()
	}
	if r.router != nil {
		r.router.Close()
	}
	for _, s := range r.servers {
		_ = s.Close()
	}
	r.wg.Wait()
}

// portTries bounds the search for a free backend port.
const portTries = 64

// basePort is the first backend port of a seed's cluster: below Linux's
// ephemeral range, so client connections do not occupy it.
func basePort(seed uint64) int { return 20000 + int(seed%1000)*8 }

func portOf(addr string) int {
	_, p, _ := net.SplitHostPort(addr)
	n, _ := strconv.Atoi(p)
	return n
}

// rng is splitmix64: the benchmark's only source of input randomness.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm is a Fisher-Yates permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
