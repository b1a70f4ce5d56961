// Package engine executes predictor sweeps — the (configuration ×
// benchmark) grids behind every figure of the paper — with one trace
// replay per benchmark instead of one per configuration.
//
// The sequential reference (Options.Reference) replays a benchmark's
// trace from scratch for every predictor configuration, one event at
// a time through core.Run. The engine instead:
//
//   - groups a sweep's predictor configurations by benchmark and
//     replays each benchmark's cached trace once, feeding every
//     configuration from that single pass in event chunks (the chunk
//     stays hot in cache while each predictor consumes it through its
//     concrete batch loop — see core.RunBatch);
//   - scores perfect-meta hybrids (Sweep.AddAny) from their component
//     configurations' per-event hit masks instead of replaying them;
//   - shares results across sweeps: a configuration registered as a
//     core.Spec (Sweep.AddSpec) is replayed once per benchmark and
//     budget for the life of the TraceCache, and every other sweep
//     that registers it reads the published result and hit mask;
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
	"math/bits"
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
	// FeedSize, when positive, makes each benchmark replay take its
	// trace in slices of at most FeedSize events, each chunked from
	// its own start, instead of one pass over the whole trace — the
	// input shape Stream.Feed gets from the online autotuner. Output
	// must be bit-identical to the one-shot path (state carries across
	// slices); the streaming pass of TestEngineEquivalence holds the
	// engine to that. 0 replays each trace whole.
	FeedSize int
}

// defaultChunk is the replay chunk size: large enough to amortize the
// per-chunk predictor loop, small enough that a chunk of events
// (8 bytes each) stays resident in L1 while every predictor of the
// sweep consumes it.
const defaultChunk = 4096

// Job is one predictor configuration registered with a sweep (Add,
// AddSpec), or a perfect-meta hybrid over several of them (AddAny).
// After Sweep.Run returns nil, its accessors expose the per-benchmark
// results.
type Job struct {
	mk    func() core.Predictor // nil for an AddAny job
	spec  string                // AddSpec: the canonical spec, the shared-result key
	mask  bool                  // the replay records a whole-trace hit mask
	comps []*Job                // AddAny: the component jobs
	slot  int                   // Add, AddSpec: index in Sweep.jobs
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
// configurations (Add, AddSpec) and perfect-meta hybrids over them
// (AddAny) share a single chunked replay per benchmark; per-benchmark
// trace scans (AddScan) and free-form tasks (AddTask) run as their own
// units on the same pool. A Sweep is not safe for concurrent registration;
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

// AddSpec registers the predictor configuration spec like Add, and
// shares its result across sweeps on the same TraceCache: the first
// sweep to replay (benchmark, budget, spec) publishes the result there,
// and every other sweep that registers spec reads it instead of
// replaying. Stride, FCM and DFCM specs without an update delay —
// the kinds with a concrete mask loop (core.RunBatchHits) — also
// publish their whole-trace hit mask, so an AddAny over them is scored
// even in a sweep that did not replay them. In Reference mode an
// AddSpec job is an Add job: it neither reads nor fills the cache.
// AddSpec returns the existing job for a spec already registered on
// this sweep, and panics on a spec that fails Validate.
func (s *Sweep) AddSpec(spec core.Spec) *Job {
	if err := spec.Validate(); err != nil {
		panic("engine: AddSpec: " + err.Error())
	}
	key := spec.String()
	for _, j := range s.jobs {
		if j.spec == key {
			return j
		}
	}
	j := s.Add(func() core.Predictor {
		p, _ := spec.New() // validated above
		return p
	})
	j.spec = key
	j.mask = spec.Delay == 0 && (spec.Kind == "stride" || spec.Kind == "fcm" || spec.Kind == "dfcm")
	return j
}

// AddAny registers a perfect-meta hybrid over jobs already registered
// with Add or AddSpec on this sweep: an event counts as correct when
// any component predicted it, as in core.PerfectHybrid. The job runs
// no predictor of its own. Its components record whole-trace hit masks
// (or publish them, see AddSpec) and the job counts the OR of those
// masks, which is exact because a perfect meta-predictor never feeds
// one component's outcome to another. In Reference mode the job
// replays a real core.PerfectHybrid built from the components'
// factories. AddAny panics on no components, on a component that is
// not an Add or AddSpec job of this sweep, and on an AddSpec component
// that publishes no mask.
func (s *Sweep) AddAny(comps ...*Job) *Job {
	if len(comps) == 0 {
		panic("engine: AddAny needs at least one component")
	}
	for _, c := range comps {
		if c.mk == nil || c.slot >= len(s.jobs) || s.jobs[c.slot] != c {
			panic("engine: AddAny component is not an Add or AddSpec job of this sweep")
		}
		if c.spec != "" && !c.mask {
			panic("engine: AddAny component " + c.spec + " publishes no hit mask")
		}
	}
	for _, c := range comps {
		c.mask = true
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
	if s.opts.Reference {
		for _, j := range s.jobs {
			j.per[bi] = metrics.BenchResult{Benchmark: bench, Result: core.Run(j.mk(), tr)}
		}
		for _, a := range s.anys {
			comps := make([]core.Predictor, len(a.comps))
			for i, c := range a.comps {
				comps[i] = c.mk()
			}
			a.per[bi] = metrics.BenchResult{Benchmark: bench, Result: core.Run(core.NewPerfectHybrid(comps...), tr)}
		}
		return nil
	}

	// Claim every AddSpec job's shared result. This replay runs the
	// jobs it claimed and the Add jobs; another sweep runs the rest.
	var run []*Job
	owned := make([]*resultEntry, len(s.jobs))
	foreign := make([]*resultEntry, len(s.jobs))
	for ji, j := range s.jobs {
		if j.spec != "" {
			e, owner := s.cache.claim(bench, s.budget, j.spec)
			if !owner {
				foreign[ji] = e
				continue
			}
			owned[ji] = e
		}
		run = append(run, j)
	}
	results := make([]core.Result, len(s.jobs))
	masks := make([][]uint64, len(s.jobs))
	s.replay(run, masks, results, tr)
	for ji, e := range owned {
		if e != nil {
			e.res, e.mask = results[ji], masks[ji]
			close(e.done)
		}
	}
	// Wait on the other sweeps' claims only now that every claim of
	// this replay is published: an owner never waits before it
	// publishes, so no cycle of waits can form (DESIGN.md §9).
	for ji, e := range foreign {
		if e != nil {
			<-e.done
			results[ji], masks[ji] = e.res, e.mask
		}
	}

	for ji, j := range s.jobs {
		j.per[bi] = metrics.BenchResult{Benchmark: bench, Result: results[ji]}
	}
	for _, a := range s.anys {
		var correct uint64
		for w := range core.HitWords(len(tr)) {
			var m uint64
			for _, c := range a.comps {
				m |= masks[c.slot][w]
			}
			correct += uint64(bits.OnesCount64(m))
		}
		a.per[bi] = metrics.BenchResult{Benchmark: bench, Result: core.Result{Predictions: uint64(len(tr)), Correct: correct}}
	}
	return nil
}

// replay runs the given jobs over tr in one chunked pass, or in
// FeedSize slices, into their slots of results; a job with the mask
// flag gets a fresh whole-trace hit mask in its slot of masks.
func (s *Sweep) replay(run []*Job, masks [][]uint64, results []core.Result, tr trace.Trace) {
	preds := make([]core.Predictor, len(run))
	runMasks := make([][]uint64, len(run))
	for k, j := range run {
		preds[k] = j.mk()
		if j.mask {
			masks[j.slot] = make([]uint64, core.HitWords(len(tr)))
			runMasks[k] = masks[j.slot]
		}
	}
	runResults := make([]core.Result, len(run))
	scratch := make([]uint64, core.HitWords(s.opts.ChunkSize))
	feed := len(tr)
	if s.opts.FeedSize > 0 {
		feed = s.opts.FeedSize
	}
	for start := 0; start < len(tr); start += feed {
		replayChunks(preds, runMasks, runResults, tr[start:min(start+feed, len(tr))], start, s.opts.ChunkSize, scratch)
	}
	for k, j := range run {
		results[j.slot] = runResults[k]
	}
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
