package engine

import (
	"sync"

	"repro/internal/core"
	"repro/internal/trace"
)

// Generator produces the trace of one benchmark under a given
// instruction budget (typically progs.TraceFor). It must be safe for
// concurrent use with distinct arguments.
type Generator func(name string, budget uint64) (trace.Trace, error)

// traceKey identifies one cached trace.
type traceKey struct {
	name   string
	budget uint64
}

// traceEntry is one cache slot. The sync.Once gives per-key
// singleflight: every caller of Get for the same key shares one
// generator run, while callers for different keys proceed in
// parallel. (The predecessor of this cache held a single mutex across
// the whole generator run, so "concurrent" first fills for different
// benchmarks were actually serialized.)
type traceEntry struct {
	once sync.Once
	tr   trace.Trace
	err  error
}

// derivedKey identifies one cached derived artifact: a deterministic
// function of a cached trace, named by tag.
type derivedKey struct {
	traceKey
	tag string
}

// derivedEntry mirrors traceEntry for derived artifacts.
type derivedEntry struct {
	once sync.Once
	v    any
	err  error
}

// resultKey identifies one shared sweep result: the predictor
// configuration named by a canonical core.Spec string, replayed over
// the (name, budget) trace.
type resultKey struct {
	traceKey
	spec string
}

// resultEntry is one shared sweep result. The sweep that claimed it
// fills res and mask, then closes done; every other sweep waits on
// done and only reads afterwards.
type resultEntry struct {
	done chan struct{}
	res  core.Result
	mask []uint64 // whole-trace hit mask; nil for kinds without a mask loop
}

// TraceCache memoizes benchmark traces by (name, budget), and the
// sweep results computed from them by (name, budget, spec). Traces
// are immutable once generated; callers must not modify the returned
// slice.
type TraceCache struct {
	gen     Generator
	mu      sync.Mutex                   // never held during gen, compute or a replay
	entries map[traceKey]*traceEntry     // vplint:guardedby mu
	derived map[derivedKey]*derivedEntry // vplint:guardedby mu
	results map[resultKey]*resultEntry   // vplint:guardedby mu
	// claims counts the result entries ever created.
	claims int // vplint:guardedby mu
}

// NewTraceCache returns an empty cache backed by gen.
func NewTraceCache(gen Generator) *TraceCache {
	return &TraceCache{
		gen:     gen,
		entries: make(map[traceKey]*traceEntry),
		derived: make(map[derivedKey]*derivedEntry),
		results: make(map[resultKey]*resultEntry),
	}
}

// Get returns the cached trace for (name, budget), generating it on
// the first request. Concurrent first requests for the same key
// coalesce into one generator run; requests for different keys
// generate concurrently.
func (c *TraceCache) Get(name string, budget uint64) (trace.Trace, error) {
	k := traceKey{name: name, budget: budget}
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = &traceEntry{}
		c.entries[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.tr, e.err = c.gen(name, budget) })
	return e.tr, e.err
}

// Derived returns a memoized artifact computed deterministically from
// the (name, budget) trace — e.g. the stride-oracle hit mask the
// Figure 6/9 scans share. tag names the artifact; compute must be a
// pure function of the trace so every caller gets the same value.
// Same singleflight discipline as Get: one compute per key, no lock
// held during trace generation or compute.
func (c *TraceCache) Derived(name string, budget uint64, tag string,
	compute func(tr trace.Trace) (any, error)) (any, error) {
	k := derivedKey{traceKey: traceKey{name: name, budget: budget}, tag: tag}
	c.mu.Lock()
	e, ok := c.derived[k]
	if !ok {
		e = &derivedEntry{}
		c.derived[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		tr, err := c.Get(name, budget)
		if err != nil {
			e.err = err
			return
		}
		e.v, e.err = compute(tr)
	})
	return e.v, e.err
}

// claim returns the shared result entry of spec over the (name,
// budget) trace, creating it if it does not exist yet. owner reports
// that this call created it: the caller must then publish it (fill
// res and mask, close done) without waiting on any other entry first.
func (c *TraceCache) claim(name string, budget uint64, spec string) (e *resultEntry, owner bool) {
	k := resultKey{traceKey: traceKey{name: name, budget: budget}, spec: spec}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.results[k]; ok {
		return e, false
	}
	e = &resultEntry{done: make(chan struct{})}
	c.results[k] = e
	c.claims++
	return e, true
}

// Reset drops every cached trace, derived artifact and shared result.
// In-flight Gets and claims keep their old entries; subsequent ones
// start afresh.
func (c *TraceCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[traceKey]*traceEntry)
	c.derived = make(map[derivedKey]*derivedEntry)
	c.results = make(map[resultKey]*resultEntry)
}
