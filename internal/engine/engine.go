// Package engine executes predictor sweeps — the (configuration ×
// benchmark) grids behind every figure of the paper — with one trace
// replay per benchmark instead of one per configuration.
//
// The old harness (internal/experiments.sweep) replayed a benchmark's
// trace from scratch for every predictor configuration, one event at a
// time through interface calls, and fanned out one unbounded goroutine
// per benchmark. The engine instead:
//
//   - groups a sweep's predictor configurations by benchmark and
//     replays each benchmark's cached trace once, feeding every
//     configuration from that single pass in event chunks (the chunk
//     stays hot in cache while each predictor consumes it, and the
//     per-event Source.Next dispatch is gone — see core.RunBatch);
//   - scores perfect-meta hybrids (Sweep.AddAny) from their component
//     configurations' per-event hit masks instead of replaying them;
//   - schedules all work units on one bounded worker pool sized by
//     GOMAXPROCS, replacing the unbounded per-benchmark fan-out;
//   - fetches traces through a TraceCache whose per-key singleflight
//     lets distinct benchmarks generate concurrently while duplicate
//     requests still coalesce.
//
// Results are bit-identical to the sequential per-configuration path:
// every configuration gets its own predictor instance, predictor state
// carries across chunks exactly as across events, and all accumulation
// is integer arithmetic into index-addressed slots, so neither
// chunking nor scheduling order can change any output
// (DESIGN.md §9). Options.Reference keeps the old per-event
// sequential path alive as the equivalence oracle the tests compare
// against.
package engine

import (
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Options tunes sweep execution. The zero value is the production
// configuration: GOMAXPROCS workers, default chunk size.
type Options struct {
	// Workers bounds the number of concurrently executing work units;
	// 0 means runtime.GOMAXPROCS(0).
	Workers int
	// ChunkSize is the number of events per replay chunk; 0 means
	// defaultChunk.
	ChunkSize int
	// Reference switches Run to the pre-engine execution model: work
	// units run sequentially in submission order and predictor jobs
	// replay per event through core.Run instead of in chunks. Output
	// must be bit-identical to the default mode; the equivalence
	// tests in internal/experiments hold the engine to that.
	Reference bool
	// FeedSize, when positive, makes each benchmark replay feed its
	// trace through the streaming core (Stream.Feed) in slices of at
	// most FeedSize events instead of one call over the whole trace —
	// the exact input shape the online autotuner produces. Output must
	// be bit-identical to the one-shot path (state carries across Feed
	// calls); the streaming-refactor regression pass of
	// TestEngineEquivalence holds the engine to that. 0 feeds each
	// trace whole.
	FeedSize int
}

// defaultChunk is the replay chunk size: large enough to amortize the
// per-chunk predictor loop, small enough that a chunk of events
// (8 bytes each) stays resident in L1 while every predictor of the
// sweep consumes it.
const defaultChunk = 4096

// Job is one predictor configuration registered with a sweep (Add),
// or a perfect-meta hybrid over several of them (AddAny). After
// Sweep.Run returns nil, its accessors expose the per-benchmark
// results.
type Job struct {
	mk    func() core.Predictor // nil for an AddAny job
	comps []*Job                // AddAny: the component jobs
	slot  int                   // Add: index in Sweep.jobs
	per   []metrics.BenchResult
}

// PerBench returns the job's results in the sweep's benchmark order.
// Valid only after the owning Sweep.Run returned nil.
func (j *Job) PerBench() []metrics.BenchResult { return j.per }

// Weighted returns the prediction-count-weighted mean accuracy over
// the job's benchmarks (the paper's summary statistic).
func (j *Job) Weighted() float64 { return metrics.WeightedMean(j.per) }

// Sweep collects work over a fixed benchmark list, then executes all
// of it in one Run. Four kinds of work are supported: predictor
// configurations (Add) and perfect-meta hybrids over them (AddAny)
// share a single chunked replay per benchmark; per-benchmark trace
// scans (AddScan) and free-form tasks (AddTask) run as their own units
// on the same pool. A Sweep is not safe for concurrent registration;
// Run may be called once.
type Sweep struct {
	opts    Options
	cache   *TraceCache
	benches []string
	budget  uint64
	jobs    []*Job
	anys    []*Job
	scans   []func(i int, bench string, tr trace.Trace) error
	tasks   []func() error
}

// NewSweep returns an empty sweep over the given benchmarks at the
// given per-benchmark instruction budget, reading traces through
// cache.
func NewSweep(opts Options, cache *TraceCache, benchmarks []string, budget uint64) *Sweep {
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = defaultChunk
	}
	return &Sweep{opts: opts, cache: cache, benches: benchmarks, budget: budget}
}

// Add registers a predictor configuration. mk is called once per
// benchmark, possibly concurrently, and must return a fresh
// independent predictor each time.
func (s *Sweep) Add(mk func() core.Predictor) *Job {
	j := &Job{mk: mk, slot: len(s.jobs)}
	s.jobs = append(s.jobs, j)
	return j
}

// AddAny registers a perfect-meta hybrid over jobs already registered
// with Add on this sweep: an event counts as correct when any
// component predicted it, as in core.PerfectHybrid. The job runs no
// predictor of its own. Its components record per-event hit masks
// during the shared replay and the job counts the OR of those masks,
// which is exact because a perfect meta-predictor never feeds one
// component's outcome to another. In Reference mode the job replays a
// real core.PerfectHybrid built from the components' factories. AddAny
// panics on no components or on a component that is not an Add job of
// this sweep.
func (s *Sweep) AddAny(comps ...*Job) *Job {
	if len(comps) == 0 {
		panic("engine: AddAny needs at least one component")
	}
	for _, c := range comps {
		if c.mk == nil || c.slot >= len(s.jobs) || s.jobs[c.slot] != c {
			panic("engine: AddAny component is not an Add job of this sweep")
		}
	}
	j := &Job{comps: comps}
	s.anys = append(s.anys, j)
	return j
}

// AddScan registers a custom pass over every benchmark's trace. fn is
// called once per benchmark — concurrently across benchmarks — with
// the benchmark's index in the sweep's benchmark list, its name and
// its cached trace. fn must confine its writes to state owned by this
// scan (typically an i-indexed slot) and must not modify the trace.
func (s *Sweep) AddScan(fn func(i int, bench string, tr trace.Trace) error) {
	s.scans = append(s.scans, fn)
}

// AddTask registers a free-form unit of work on the sweep's pool, for
// per-benchmark computations that do not consume the sweep's shared
// traces (VM reruns, ILP measurement, fixed-benchmark scans).
func (s *Sweep) AddTask(fn func() error) {
	s.tasks = append(s.tasks, fn)
}

// Run executes all registered work and blocks until it finishes,
// returning the first error in unit submission order.
func (s *Sweep) Run() error {
	for _, j := range s.jobs {
		j.per = make([]metrics.BenchResult, len(s.benches))
	}
	for _, j := range s.anys {
		j.per = make([]metrics.BenchResult, len(s.benches))
	}
	var units []func() error
	if len(s.jobs) > 0 {
		for bi := range s.benches {
			bi := bi
			units = append(units, func() error { return s.replayBench(bi) })
		}
	}
	for _, scan := range s.scans {
		scan := scan
		for bi, bench := range s.benches {
			bi, bench := bi, bench
			units = append(units, func() error {
				tr, err := s.cache.Get(bench, s.budget)
				if err != nil {
					return err
				}
				return scan(bi, bench, tr)
			})
		}
	}
	units = append(units, s.tasks...)

	if s.opts.Reference {
		for _, u := range units {
			if err := u(); err != nil {
				return err
			}
		}
		return nil
	}
	return runPool(units, s.opts.Workers)
}

// replayBench is one work unit: all predictor configurations of the
// sweep, and the any-jobs over them, for one benchmark from a single
// pass over its trace.
func (s *Sweep) replayBench(bi int) error {
	bench := s.benches[bi]
	tr, err := s.cache.Get(bench, s.budget)
	if err != nil {
		return err
	}
	preds := make([]core.Predictor, len(s.jobs))
	for ji, j := range s.jobs {
		preds[ji] = j.mk()
	}
	var results []core.Result
	if s.opts.Reference {
		results = make([]core.Result, len(s.jobs), len(s.jobs)+len(s.anys))
		for ji, p := range preds {
			results[ji] = core.Run(p, trace.NewReader(tr))
		}
		for _, a := range s.anys {
			comps := make([]core.Predictor, len(a.comps))
			for i, c := range a.comps {
				comps[i] = c.mk()
			}
			results = append(results, core.Run(core.NewPerfectHybrid(comps...), trace.NewReader(tr)))
		}
	} else {
		// The one-shot offline replay is the streaming core fed the
		// whole trace: Feed chunks it at ChunkSize internally, so this
		// is byte-identical to the pre-Stream replayChunks call.
		anys := make([][]int, len(s.anys))
		for k, a := range s.anys {
			for _, c := range a.comps {
				anys[k] = append(anys[k], c.slot)
			}
		}
		st := newAnyStream(preds, anys, s.opts.ChunkSize)
		if fs := s.opts.FeedSize; fs > 0 {
			for start := 0; start < len(tr); start += fs {
				end := start + fs
				if end > len(tr) {
					end = len(tr)
				}
				st.Feed(tr[start:end])
			}
		} else {
			st.Feed(tr)
		}
		results = st.Finalize()
	}
	for ji, j := range s.jobs {
		j.per[bi] = metrics.BenchResult{Benchmark: bench, Result: results[ji]}
	}
	for k, j := range s.anys {
		j.per[bi] = metrics.BenchResult{Benchmark: bench, Result: results[len(s.jobs)+k]}
	}
	return nil
}

// runPool executes the units on a bounded worker pool and returns the
// first error in unit order. Every unit runs regardless of other
// units' errors: units write only their own slots, so finishing the
// batch keeps the error report deterministic without cancellation
// plumbing.
func runPool(units []func() error, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}
	errs := make([]error, len(units))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = units[i]()
			}
		}()
	}
	for i := range units {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
