// Command vploadgen replays a value trace against a running vpserve
// over M concurrent connections — one session per connection — and
// reports throughput and p50/p95/p99 batch latency.
//
// The event stream comes from a VTR1 trace file or from a synthetic
// internal/workload loop body. In the default "run" mode the server
// performs the offline predict-compare-update loop per event, so a
// single-connection replay reports exactly the hit count of
// cmd/vpredict over the same trace and predictor flags. "split" mode
// instead streams interleaved PredictBatch/UpdateBatch frames and
// scores client-side, exercising the pipelined path.
//
// -addr may point at a single vpserve or at a cmd/vprouter fronting a
// fleet — the wire protocol is identical, so the load generator does
// not care. When it is a router, passing the router's admin address
// via -admin additionally reports how the run's requests were
// distributed across backends (from the router's /stats endpoint,
// sampled before and after the run).
//
// Usage:
//
//	vploadgen -addr localhost:9177 -trace li.vtr -conns 8 -batch 256
//	vploadgen -addr localhost:9177 -workload const=2,stride=6,cycle=4,rand=2 -events 200000
//	vploadgen -addr localhost:9200 -admin localhost:9201 -conns 16
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

type loadConfig struct {
	addr        string
	adminAddr   string
	traceFile   string
	workload    string
	events      int
	conns       int
	batch       int
	mode        string
	sessionBase uint64
}

func parseFlags(fs *flag.FlagSet) *loadConfig {
	c := &loadConfig{}
	fs.StringVar(&c.addr, "addr", "localhost:9177", "vpserve or vprouter address")
	fs.StringVar(&c.adminAddr, "admin", "", "vprouter admin address for per-backend load attribution (empty disables)")
	fs.StringVar(&c.traceFile, "trace", "", "VTR1 trace file to replay")
	fs.StringVar(&c.workload, "workload", "const=2,stride=6,cycle=4,rand=2",
		"synthetic loop body (used when -trace is empty)")
	fs.IntVar(&c.events, "events", 100_000, "events to replay per connection")
	fs.IntVar(&c.conns, "conns", 1, "concurrent connections (one session each)")
	fs.IntVar(&c.batch, "batch", 64, "events per request frame")
	fs.StringVar(&c.mode, "mode", "run",
		"run = server-side predict+update per event; split = interleaved PredictBatch/UpdateBatch frames")
	fs.Uint64Var(&c.sessionBase, "session", 1, "session ID of the first connection")
	return c
}

// parseWorkload decodes "const=2,stride=6,cycle=4,rand=2" into loop
// body counts; omitted classes default to zero.
func parseWorkload(s string) (nConst, nStride, nCycle, nRand int, err error) {
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return 0, 0, 0, 0, fmt.Errorf("workload term %q is not key=count", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return 0, 0, 0, 0, fmt.Errorf("workload term %q has a bad count", part)
		}
		switch key {
		case "const":
			nConst = n
		case "stride":
			nStride = n
		case "cycle":
			nCycle = n
		case "rand":
			nRand = n
		default:
			return 0, 0, 0, 0, fmt.Errorf("unknown workload class %q", key)
		}
	}
	if nConst+nStride+nCycle+nRand == 0 {
		return 0, 0, 0, 0, fmt.Errorf("workload %q has no instructions", s)
	}
	return nConst, nStride, nCycle, nRand, nil
}

// loadEvents materializes the event stream every connection replays.
func loadEvents(c *loadConfig) (trace.Trace, error) {
	if c.events <= 0 {
		return nil, fmt.Errorf("-events must be positive")
	}
	if c.traceFile != "" {
		f, err := os.Open(c.traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := trace.ReadAuto(f)
		if err != nil {
			return nil, err
		}
		if len(tr) == 0 {
			return nil, fmt.Errorf("%s: empty trace", c.traceFile)
		}
		if len(tr) > c.events {
			tr = tr[:c.events]
		}
		return tr, nil
	}
	nc, ns, ny, nr, err := parseWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	body := workload.LoopBody(0x1000, nc, ns, ny, nr)
	rounds := (c.events + len(body) - 1) / len(body)
	return workload.Interleave(body, rounds)[:c.events], nil
}

// report aggregates one load run.
type report struct {
	Conns      int
	Events     uint64 // replayed across all connections
	Hits       uint64
	Busy       uint64 // batches shed by backpressure (retried)
	Elapsed    time.Duration
	Throughput float64 // events/sec
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
}

func (r report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conns:       %d\n", r.Conns)
	fmt.Fprintf(&b, "events:      %d\n", r.Events)
	hitRate := 0.0
	if r.Events > 0 {
		hitRate = float64(r.Hits) / float64(r.Events)
	}
	fmt.Fprintf(&b, "hits:        %d (%.4f hit rate)\n", r.Hits, hitRate)
	fmt.Fprintf(&b, "busy:        %d shed batches\n", r.Busy)
	fmt.Fprintf(&b, "elapsed:     %v\n", r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "throughput:  %.0f events/sec\n", r.Throughput)
	fmt.Fprintf(&b, "latency:     p50=%v p95=%v p99=%v (per batch)\n",
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	return b.String()
}

// percentile returns the p-th percentile (0..100) of sorted
// durations, by the nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// connResult is one connection's tally.
type connResult struct {
	hits      uint64
	busy      uint64
	latencies []time.Duration
	err       error
}

// replayConn replays events on one connection/session, one batch per
// request (run mode) or per predict+update frame pair (split mode).
// StatusBusy batches are retried: backpressure sheds work, the load
// generator re-offers it.
func replayConn(c *loadConfig, session uint64, events trace.Trace) connResult {
	client, err := serve.Dial(c.addr)
	if err != nil {
		return connResult{err: err}
	}
	defer client.Close()
	res := connResult{latencies: make([]time.Duration, 0, (len(events)+c.batch-1)/c.batch)}
	pcs := make([]uint32, 0, c.batch)
	for start := 0; start < len(events); start += c.batch {
		end := start + c.batch
		if end > len(events) {
			end = len(events)
		}
		batch := events[start:end]
		consecutiveBusy := 0
		for {
			t0 := time.Now()
			var st serve.Status
			var hits uint64
			switch c.mode {
			case "run":
				var h uint32
				h, st, err = client.RunBatch(session, batch)
				hits = uint64(h)
			case "split":
				pcs = pcs[:0]
				for _, ev := range batch {
					pcs = append(pcs, ev.PC)
				}
				var values []uint32
				values, st, err = client.PredictBatch(session, pcs)
				if err == nil && st == serve.StatusOK {
					for i, ev := range batch {
						if values[i] == ev.Value {
							hits++
						}
					}
					st, err = client.UpdateBatch(session, batch)
				}
			default:
				return connResult{err: fmt.Errorf("unknown mode %q", c.mode)}
			}
			if err != nil {
				res.err = err
				return res
			}
			res.latencies = append(res.latencies, time.Since(t0))
			if st == serve.StatusBusy {
				res.busy++
				if consecutiveBusy++; consecutiveBusy > 10_000 {
					res.err = fmt.Errorf("session %d: server busy for %d consecutive attempts", session, consecutiveBusy)
					return res
				}
				time.Sleep(100 * time.Microsecond) // back off, then re-offer
				continue
			}
			if st != serve.StatusOK {
				res.err = fmt.Errorf("session %d: server answered %v", session, st)
				return res
			}
			res.hits += hits
			break
		}
	}
	return res
}

// runLoad replays the configured event stream over c.conns concurrent
// connections and aggregates the results.
func runLoad(c *loadConfig) (report, error) {
	if c.conns <= 0 || c.batch <= 0 {
		return report{}, fmt.Errorf("-conns and -batch must be positive")
	}
	events, err := loadEvents(c)
	if err != nil {
		return report{}, err
	}

	results := make([]connResult, c.conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < c.conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = replayConn(c, c.sessionBase+uint64(i), events)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	rep := report{Conns: c.conns, Elapsed: elapsed}
	var all []time.Duration
	for _, res := range results {
		if res.err != nil {
			return report{}, res.err
		}
		rep.Events += uint64(len(events))
		rep.Hits += res.hits
		rep.Busy += res.busy
		all = append(all, res.latencies...)
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Events) / elapsed.Seconds()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.P50 = percentile(all, 50)
	rep.P95 = percentile(all, 95)
	rep.P99 = percentile(all, 99)
	return rep, nil
}

// fetchRouterStats reads a vprouter admin /stats snapshot.
func fetchRouterStats(addr string) (cluster.RouterStats, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	resp, err := http.Get(addr + "/stats")
	if err != nil {
		return cluster.RouterStats{}, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return cluster.RouterStats{}, fmt.Errorf("router admin answered %s", resp.Status)
	}
	var st cluster.RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return cluster.RouterStats{}, err
	}
	return st, nil
}

// formatBackendLoad renders the per-backend request counts this run
// added, by differencing the router's before/after stats snapshots.
func formatBackendLoad(before, after cluster.RouterStats) string {
	prior := make(map[string]uint64, len(before.Backends))
	for _, b := range before.Backends {
		prior[b.Addr] = b.Requests
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "backends:    %d (%d sessions routed, %d migrations)\n",
		len(after.Backends), after.Sessions, after.Migrations)
	for _, b := range after.Backends {
		state := "up"
		if !b.Healthy {
			state = "DOWN"
		}
		fmt.Fprintf(&sb, "  %-24s %-4s %8d requests  %d sessions\n",
			b.Addr, state, b.Requests-prior[b.Addr], b.Sessions)
	}
	return sb.String()
}

func main() {
	cfg := parseFlags(flag.CommandLine)
	flag.Parse()
	var before cluster.RouterStats
	if cfg.adminAddr != "" {
		st, err := fetchRouterStats(cfg.adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vploadgen: router admin:", err)
			os.Exit(1)
		}
		before = st
	}
	rep, err := runLoad(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vploadgen:", err)
		os.Exit(1)
	}
	fmt.Print(rep)
	if cfg.adminAddr != "" {
		after, err := fetchRouterStats(cfg.adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vploadgen: router admin:", err)
			os.Exit(1)
		}
		fmt.Print(formatBackendLoad(before, after))
	}
}
