package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// synthTrace builds a deterministic event stream mixing stride,
// constant and context-dependent values over a handful of PCs.
func synthTrace(n int) trace.Trace {
	tr := make(trace.Trace, 0, n)
	var x uint32
	for i := 0; i < n; i++ {
		pc := uint32(0x1000 + 4*(i%7))
		switch i % 3 {
		case 0:
			x += 3
		case 1:
			x = uint32(i % 5)
		default:
			x = x*2 + 1
		}
		tr = append(tr, trace.Event{PC: pc, Value: x})
	}
	return tr
}

func synthGen(tr trace.Trace) Generator {
	return func(name string, budget uint64) (trace.Trace, error) {
		return tr, nil
	}
}

// configs covers the predictor shapes the experiments sweep,
// including a Scorer (perfect hybrid).
func configs() []func() core.Predictor {
	return []func() core.Predictor{
		func() core.Predictor { return core.NewLastValue(8) },
		func() core.Predictor { return core.NewStride(8) },
		func() core.Predictor { return core.NewFCM(8, 10) },
		func() core.Predictor { return core.NewDFCM(8, 10) },
		func() core.Predictor { return core.NewDelayed(core.NewDFCM(8, 10), 16) },
		func() core.Predictor {
			return core.NewPerfectHybrid(core.NewStride(8), core.NewFCM(8, 10))
		},
	}
}

// TestSweepMatchesPerEventRun: the chunked multi-predictor single-pass
// replay must produce exactly the per-event core.Run results, for
// every config and benchmark, at several chunk sizes (including ones
// that do not divide the trace length).
func TestSweepMatchesPerEventRun(t *testing.T) {
	tr := synthTrace(10_000)
	benches := []string{"a", "b"}
	for _, chunk := range []int{1, 7, 1024, 4096, 1 << 20} {
		cache := NewTraceCache(synthGen(tr))
		s := NewSweep(Options{ChunkSize: chunk}, cache, benches, 0)
		var jobs []*Job
		for _, mk := range configs() {
			jobs = append(jobs, s.Add(mk))
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for ji, mk := range configs() {
			want := core.Run(mk(), tr)
			for bi, bench := range benches {
				got := jobs[ji].PerBench()[bi]
				if got.Benchmark != bench {
					t.Fatalf("job %d bench %d labeled %q", ji, bi, got.Benchmark)
				}
				if got.Result != want {
					t.Errorf("chunk %d job %d %s: got %+v want %+v",
						chunk, ji, bench, got.Result, want)
				}
			}
		}
	}
}

// TestReferenceModeMatchesEngine: the sequential per-event reference
// path and the default chunked concurrent path agree exactly.
func TestReferenceModeMatchesEngine(t *testing.T) {
	tr := synthTrace(8_000)
	run := func(opts Options) []metrics.BenchResult {
		s := NewSweep(opts, NewTraceCache(synthGen(tr)), []string{"x"}, 0)
		var jobs []*Job
		for _, mk := range configs() {
			jobs = append(jobs, s.Add(mk))
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var out []metrics.BenchResult
		for _, j := range jobs {
			out = append(out, j.PerBench()...)
		}
		return out
	}
	ref := run(Options{Reference: true})
	got := run(Options{})
	for i := range ref {
		if ref[i] != got[i] {
			t.Errorf("job %d: reference %+v, engine %+v", i, ref[i], got[i])
		}
	}
}

// TestSweepAddAnyMatchesPerfectHybrid: an AddAny job scored from its
// components' hit masks equals a real core.PerfectHybrid over fresh
// copies of the components, per benchmark, at chunk sizes below, at
// and above a mask word, with incremental feeds, and in Reference
// mode. The component jobs themselves, now replayed through
// RunBatchHits, keep their plain per-event results.
func TestSweepAddAnyMatchesPerfectHybrid(t *testing.T) {
	tr := synthTrace(9_000)
	benches := []string{"a", "b"}
	comps := []func() core.Predictor{
		func() core.Predictor { return core.NewStride(8) },
		func() core.Predictor { return core.NewFCM(8, 10) },
		func() core.Predictor { return core.NewDFCM(8, 6) },
		func() core.Predictor { return core.NewLastValue(8) },
		// A hybrid component reaches RunBatchHits through its Scorer path.
		func() core.Predictor { return core.NewPerfectHybrid(core.NewLastValue(8), core.NewFCM(8, 8)) },
	}
	anys := [][]int{{0, 1}, {0, 2}, {1}, {3, 0, 2}, {4, 0}}
	for _, opts := range []Options{
		{ChunkSize: 1}, {ChunkSize: 63}, {ChunkSize: 64}, {ChunkSize: 4096},
		{ChunkSize: 64, FeedSize: 509}, {FeedSize: 1000}, {Reference: true},
	} {
		s := NewSweep(opts, NewTraceCache(synthGen(tr)), benches, 0)
		compJobs := make([]*Job, len(comps))
		for i, mk := range comps {
			compJobs[i] = s.Add(mk)
		}
		var got, hybrids []*Job
		for _, members := range anys {
			var js []*Job
			for _, c := range members {
				js = append(js, compJobs[c])
			}
			members := members
			got = append(got, s.AddAny(js...))
			hybrids = append(hybrids, s.Add(func() core.Predictor {
				ps := make([]core.Predictor, len(members))
				for i, c := range members {
					ps[i] = comps[c]()
				}
				return core.NewPerfectHybrid(ps...)
			}))
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for k := range anys {
			for bi := range benches {
				if g, w := got[k].PerBench()[bi], hybrids[k].PerBench()[bi]; g != w {
					t.Errorf("%+v any-set %d bench %d: AddAny %+v, PerfectHybrid %+v", opts, k, bi, g, w)
				}
			}
		}
		for i, mk := range comps {
			want := core.Run(mk(), tr)
			for bi := range benches {
				if g := compJobs[i].PerBench()[bi].Result; g != want {
					t.Errorf("%+v component %d bench %d: got %+v want %+v", opts, i, bi, g, want)
				}
			}
		}
	}
}

// TestAddAnyRejectsForeignJobs: AddAny takes only Add jobs of its own
// sweep.
func TestAddAnyRejectsForeignJobs(t *testing.T) {
	cache := NewTraceCache(synthGen(synthTrace(10)))
	s := NewSweep(Options{}, cache, []string{"a"}, 0)
	other := NewSweep(Options{}, cache, []string{"a"}, 0)
	st := s.Add(func() core.Predictor { return core.NewStride(4) })
	for name, comps := range map[string][]*Job{
		"none":    nil,
		"foreign": {other.Add(func() core.Predictor { return core.NewStride(4) })},
		"any-job": {s.AddAny(st)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AddAny did not panic", name)
				}
			}()
			s.AddAny(comps...)
		}()
	}
}

// TestTraceCacheCoalescesDuplicates: concurrent Gets for the same key
// share one generator run.
func TestTraceCacheCoalescesDuplicates(t *testing.T) {
	var calls atomic.Int32
	cache := NewTraceCache(func(name string, budget uint64) (trace.Trace, error) {
		calls.Add(1)
		return synthTrace(10), nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cache.Get("same", 42); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("generator ran %d times for one key", n)
	}
	cache.Reset()
	if _, err := cache.Get("same", 42); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("Reset did not drop the entry (calls=%d)", n)
	}
}

// TestTraceCacheDistinctKeysOverlap is the regression test for the
// first-fill serialization bug: the old experiments cache held its
// mutex across the whole generator run, so two "concurrent" misses
// for different benchmarks generated one after the other. Here both
// generator invocations must be in flight at the same time; each
// blocks until the other has started, so a serialized cache would
// deadlock (bounded by the watchdog below) instead of passing.
func TestTraceCacheDistinctKeysOverlap(t *testing.T) {
	started := make(chan string, 2)
	release := make(chan struct{})
	cache := NewTraceCache(func(name string, budget uint64) (trace.Trace, error) {
		started <- name
		<-release
		return synthTrace(1), nil
	})
	done := make(chan error, 2)
	for _, name := range []string{"li", "go"} {
		name := name
		go func() {
			_, err := cache.Get(name, 7)
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("second generator never started: first fill is serialized")
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestWorkerPoolBounded: no more than Options.Workers units execute
// at once, and every unit runs.
func TestWorkerPoolBounded(t *testing.T) {
	const workers, n = 2, 16
	var cur, max, ran atomic.Int32
	units := make([]func() error, n)
	for i := range units {
		units[i] = func() error {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			ran.Add(1)
			return nil
		}
	}
	if err := runPool(units, workers); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Errorf("%d of %d units ran", ran.Load(), n)
	}
	if m := max.Load(); m > workers {
		t.Errorf("%d units ran concurrently, pool bound is %d", m, workers)
	}
}

// TestRunReportsFirstErrorInOrder: errors surface deterministically by
// submission order, not completion order.
func TestRunReportsFirstErrorInOrder(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	units := []func() error{
		func() error { time.Sleep(20 * time.Millisecond); return errA },
		func() error { return errB },
	}
	if err := runPool(units, 4); err != errA {
		t.Errorf("got %v, want first-submitted error %v", err, errA)
	}
}

// TestScansAndTasks: scans receive the right (index, bench, trace)
// and tasks run; a scan error propagates out of Run.
func TestScansAndTasks(t *testing.T) {
	tr := synthTrace(100)
	benches := []string{"a", "b", "c"}
	s := NewSweep(Options{}, NewTraceCache(synthGen(tr)), benches, 5)
	seen := make([]string, len(benches))
	s.AddScan(func(i int, bench string, got trace.Trace) error {
		if len(got) != len(tr) {
			return fmt.Errorf("scan %d: trace len %d", i, len(got))
		}
		seen[i] = bench
		return nil
	})
	taskRan := false
	s.AddTask(func() error { taskRan = true; return nil })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, bench := range benches {
		if seen[i] != bench {
			t.Errorf("scan slot %d = %q, want %q", i, seen[i], bench)
		}
	}
	if !taskRan {
		t.Error("task did not run")
	}

	s2 := NewSweep(Options{}, NewTraceCache(synthGen(tr)), benches, 5)
	boom := errors.New("boom")
	s2.AddScan(func(i int, bench string, got trace.Trace) error { return boom })
	if err := s2.Run(); err != boom {
		t.Errorf("scan error not propagated: %v", err)
	}
}

// TestGeneratorErrorPropagates: a trace generation failure fails the
// sweep.
func TestGeneratorErrorPropagates(t *testing.T) {
	boom := errors.New("no such benchmark")
	cache := NewTraceCache(func(string, uint64) (trace.Trace, error) { return nil, boom })
	s := NewSweep(Options{}, cache, []string{"a"}, 1)
	s.Add(func() core.Predictor { return core.NewLastValue(4) })
	if err := s.Run(); err != boom {
		t.Errorf("got %v, want %v", err, boom)
	}
}

// steadyReplay returns one pass of the steady-state chunked replay
// loop, with its predictors, results and trace built once up front,
// and the number of events the pass feeds.
func steadyReplay() (pass func(), events int) {
	tr := synthTrace(1 << 16)
	preds := []core.Predictor{
		core.NewFCM(10, 12),
		core.NewDFCM(10, 12),
		core.NewStride(10),
		core.NewLastValue(10),
	}
	results := make([]core.Result, len(preds))
	return func() { replayChunks(preds, nil, results, tr, 0, defaultChunk, nil) }, len(tr) * len(preds)
}

// TestReplayChunksZeroAlloc: once its predictors exist, a replay pass
// allocates nothing.
func TestReplayChunksZeroAlloc(t *testing.T) {
	if leakcheck.RaceEnabled {
		t.Skip("race detector instrumentation allocates; zero-alloc budget holds in pure builds only")
	}
	pass, _ := steadyReplay()
	if n := testing.AllocsPerRun(10, pass); n != 0 {
		t.Errorf("replayChunks: %.1f allocs/pass, want 0", n)
	}
}

// BenchmarkEngineReplay measures the steady-state chunked replay loop
// itself; TestReplayChunksZeroAlloc holds its allocations at zero.
func BenchmarkEngineReplay(b *testing.B) {
	pass, events := steadyReplay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(events), "events/op")
}

// resultStats reads the cache's shared-result bookkeeping.
func (c *TraceCache) resultStats() (entries, claims int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results), c.claims
}

// raggedGen serves traces whose lengths differ per benchmark and are
// not multiples of a mask word, so mask tails and per-benchmark
// bookkeeping are both exercised.
func raggedGen() Generator {
	lens := map[string]int{"a": 9_001, "b": 6_143, "c": 4_099}
	return func(name string, budget uint64) (trace.Trace, error) {
		return synthTrace(lens[name]), nil
	}
}

// sharedSweep registers specs with AddSpec, then one AddAny per entry
// of anys (indices into specs), and returns the jobs in that order.
func sharedSweep(s *Sweep, specs []string, anys [][]int) []*Job {
	var jobs []*Job
	for _, str := range specs {
		sp, err := core.ParseSpec(str)
		if err != nil {
			panic(err)
		}
		jobs = append(jobs, s.AddSpec(sp))
	}
	comps := jobs
	for _, members := range anys {
		var js []*Job
		for _, c := range members {
			js = append(js, comps[c])
		}
		jobs = append(jobs, s.AddAny(js...))
	}
	return jobs
}

// TestAddSpecSharesResultsAcrossSweeps: two sweeps with overlapping
// AddSpec jobs, run concurrently or one after the other on one cache,
// give every job — AddAny hybrids over components the other sweep
// claimed included — exactly the per-benchmark results of Reference
// sweeps; each (benchmark, spec) is claimed, so replayed, exactly
// once; and every published mask is the whole-trace RunBatchHits
// mask, at feed sizes and chunk sizes that leave chunks off the mask
// word grid.
func TestAddSpecSharesResultsAcrossSweeps(t *testing.T) {
	benches := []string{"a", "b", "c"}
	specsA := []string{"stride:8", "fcm:8:10", "dfcm:8:10", "dfcm:8:6", "lvp:8", "dfcm:8:10:32:16"}
	anysA := [][]int{{0, 3}}
	specsB := []string{"fcm:8:10", "dfcm:8:10", "stride:8", "fcm:8:6", "lvp:8", "2delta:8"}
	anysB := [][]int{{2, 0}, {2, 1}, {3, 1, 2}}
	distinct := map[string]bool{}
	for _, sp := range append(append([]string(nil), specsA...), specsB...) {
		distinct[sp] = true
	}

	reference := func(specs []string, anys [][]int) [][]metrics.BenchResult {
		s := NewSweep(Options{Reference: true}, NewTraceCache(raggedGen()), benches, 0)
		jobs := sharedSweep(s, specs, anys)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var out [][]metrics.BenchResult
		for _, j := range jobs {
			out = append(out, j.PerBench())
		}
		return out
	}
	wantA, wantB := reference(specsA, anysA), reference(specsB, anysB)

	for _, opts := range []Options{{}, {FeedSize: 509}, {FeedSize: 4093}, {ChunkSize: 63}} {
		for _, concurrent := range []bool{false, true} {
			cache := NewTraceCache(raggedGen())
			a, b := NewSweep(opts, cache, benches, 0), NewSweep(opts, cache, benches, 0)
			jobsA, jobsB := sharedSweep(a, specsA, anysA), sharedSweep(b, specsB, anysB)
			errs := make([]error, 2)
			if concurrent {
				var wg sync.WaitGroup
				for i, s := range []*Sweep{a, b} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[i] = s.Run()
					}()
				}
				wg.Wait()
			} else {
				errs[0], errs[1] = a.Run(), b.Run()
			}
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			for name, c := range map[string]struct {
				jobs []*Job
				want [][]metrics.BenchResult
			}{"A": {jobsA, wantA}, "B": {jobsB, wantB}} {
				for ji, j := range c.jobs {
					for bi := range benches {
						if got, want := j.PerBench()[bi], c.want[ji][bi]; got != want {
							t.Errorf("%+v concurrent=%v sweep %s job %d bench %d: got %+v, reference %+v",
								opts, concurrent, name, ji, bi, got, want)
						}
					}
				}
			}
			entries, claims := cache.resultStats()
			if want := len(benches) * len(distinct); entries != want || claims != want {
				t.Errorf("%+v concurrent=%v: %d entries, %d claims; want %d of each", opts, concurrent, entries, claims, want)
			}
			checkPublishedMasks(t, cache)
		}
	}
}

// checkPublishedMasks: every published mask equals the one a single
// RunBatchHits over the whole trace records, and exactly the kinds
// with a concrete mask loop publish one.
func checkPublishedMasks(t *testing.T, cache *TraceCache) {
	t.Helper()
	cache.mu.Lock()
	defer cache.mu.Unlock()
	for k, e := range cache.results {
		sp, err := core.ParseSpec(k.spec)
		if err != nil {
			t.Fatal(err)
		}
		wantMask := sp.Delay == 0 && (sp.Kind == "stride" || sp.Kind == "fcm" || sp.Kind == "dfcm")
		if (e.mask != nil) != wantMask {
			t.Errorf("%s on %s: published mask %v, want %v", k.spec, k.name, e.mask != nil, wantMask)
			continue
		}
		if e.mask == nil {
			continue
		}
		tr := cache.entries[k.traceKey].tr
		p, _ := sp.New()
		want := make([]uint64, core.HitWords(len(tr)))
		if r := core.RunBatchHits(p, tr, want); r != e.res {
			t.Errorf("%s on %s: published %+v, whole-trace replay %+v", k.spec, k.name, e.res, r)
		}
		for w := range want {
			if e.mask[w] != want[w] {
				t.Errorf("%s on %s: mask word %d = %#x, want %#x", k.spec, k.name, w, e.mask[w], want[w])
				break
			}
		}
	}
}

// TestResultCacheLifetime: a Reference sweep neither fills nor reads
// the shared results, a default sweep fills them, and Reset drops
// them so the next sweep replays (claims) afresh.
func TestResultCacheLifetime(t *testing.T) {
	cache := NewTraceCache(raggedGen())
	run := func(opts Options) {
		s := NewSweep(opts, cache, []string{"a", "b"}, 0)
		sharedSweep(s, []string{"stride:8", "dfcm:8:10"}, [][]int{{0, 1}})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run(Options{Reference: true})
	if entries, claims := cache.resultStats(); entries != 0 || claims != 0 {
		t.Fatalf("Reference sweep touched the result cache: %d entries, %d claims", entries, claims)
	}
	run(Options{})
	run(Options{})
	if entries, claims := cache.resultStats(); entries != 4 || claims != 4 {
		t.Fatalf("two default sweeps: %d entries, %d claims; want 4 and 4", entries, claims)
	}
	cache.Reset()
	if entries, _ := cache.resultStats(); entries != 0 {
		t.Fatalf("Reset kept %d result entries", entries)
	}
	run(Options{})
	if entries, claims := cache.resultStats(); entries != 4 || claims != 8 {
		t.Fatalf("sweep after Reset: %d entries, %d claims; want 4 and 8", entries, claims)
	}
}

// TestAddSpecRegistration: a spec registered twice (in any canonically
// equal form) is one job; an invalid spec panics; and AddAny refuses
// an AddSpec component that publishes no mask.
func TestAddSpecRegistration(t *testing.T) {
	s := NewSweep(Options{}, NewTraceCache(raggedGen()), []string{"a"}, 0)
	j := s.AddSpec(core.Spec{Kind: "dfcm", L1: 8, L2: 10})
	if s.AddSpec(core.Spec{Kind: "dfcm", L1: 8, L2: 10, Width: 32}) != j {
		t.Error("canonically equal spec registered a second job")
	}
	if s.AddSpec(core.Spec{Kind: "dfcm", L1: 8, L2: 11}) == j {
		t.Error("distinct spec returned the existing job")
	}
	lvp := s.AddSpec(core.Spec{Kind: "lvp", L1: 8})
	for name, f := range map[string]func(){
		"invalid spec":    func() { s.AddSpec(core.Spec{Kind: "nope", L1: 8}) },
		"maskless AddAny": func() { s.AddAny(j, lvp) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestOrBitsAt: the bit-offset mask write ORs exactly the source bits
// into place at every offset within a word, for sources ending on and
// off a word boundary, and leaves every other bit alone.
func TestOrBitsAt(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for off := 0; off < 64; off++ {
		for _, n := range []int{1, 63, 64, 65, 200} {
			src := make([]uint64, core.HitWords(n))
			for w := range src {
				src[w] = next()
			}
			if n%64 != 0 {
				src[len(src)-1] &= 1<<(n%64) - 1
			}
			base := 64 * 2 // start inside the mask, past word 0
			dst := make([]uint64, core.HitWords(base+off+n)+1)
			want := make([]bool, 64*len(dst))
			for i := range want {
				if i < base+off || i >= base+off+n {
					if next()&1 == 1 {
						want[i] = true
						dst[i>>6] |= 1 << (i & 63)
					}
				} else {
					k := i - base - off
					want[i] = src[k>>6]>>(k&63)&1 == 1
				}
			}
			orBitsAt(dst, base+off, src)
			for i, w := range want {
				if got := dst[i>>6]>>(i&63)&1 == 1; got != w {
					t.Fatalf("off %d n %d: bit %d = %v, want %v", off, n, i, got, w)
				}
			}
		}
	}
}
