package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
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
			want := core.Run(mk(), trace.NewReader(tr))
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
			want := core.Run(mk(), trace.NewReader(tr))
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

// BenchmarkEngineReplay measures the steady-state chunked replay loop
// itself: predictors are constructed once outside the timed region,
// so ReportAllocs shows the per-pass allocation count of the hot
// path, which must stay at zero.
func BenchmarkEngineReplay(b *testing.B) {
	tr := synthTrace(1 << 16)
	preds := []core.Predictor{
		core.NewFCM(10, 12),
		core.NewDFCM(10, 12),
		core.NewStride(10),
		core.NewLastValue(10),
	}
	results := make([]core.Result, len(preds))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayChunks(preds, nil, nil, results, tr, defaultChunk)
	}
	b.ReportMetric(float64(len(tr)*len(preds)), "events/op")
}
