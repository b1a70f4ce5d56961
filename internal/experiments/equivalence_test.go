package experiments

// The engine port's correctness contract: every experiment renders
// byte-identical output whether it runs through the chunked,
// worker-pooled engine, the streaming-input path (Options.FeedSize
// feeds each replay in bounded slices, as engine.Stream is fed), or the
// pre-engine sequential reference path (engine.Options.Reference).
// All experiment accumulation is integer arithmetic into
// index-addressed slots read back in submission order, so neither
// scheduling nor feed granularity can perturb output; this test pins
// that invariant for the whole registry.

import (
	"testing"

	"repro/internal/engine"
)

func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry equivalence run")
	}
	cfg := Config{Budget: 50_000, Benchmarks: []string{"li", "m88ksim", "go"}}

	run := func(name string, opts engine.Options) map[string]string {
		saved := engineOpts
		engineOpts = opts
		defer func() { engineOpts = saved }()
		ResetCache()
		out := make(map[string]string)
		for _, e := range All() {
			res, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", e.ID, name, err)
			}
			out[e.ID] = res.String()
		}
		return out
	}

	want := run("reference", engine.Options{Reference: true})
	for _, alt := range []struct {
		name string
		opts engine.Options
	}{
		{"engine", engine.Options{}},
		// A feed size that never divides the budget evenly, so the
		// streaming path exercises ragged final chunks everywhere.
		{"streaming", engine.Options{FeedSize: 4093}},
	} {
		got := run(alt.name, alt.opts)
		for _, e := range All() {
			if got[e.ID] != want[e.ID] {
				t.Errorf("%s: %s output differs from sequential reference path\n--- reference ---\n%s\n--- %s ---\n%s",
					e.ID, alt.name, want[e.ID], alt.name, got[e.ID])
			}
		}
	}
}
