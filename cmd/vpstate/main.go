// Command vpstate inspects the predictor snapshot files written by
// vpserve's checkpointing (the internal/snapshot "VPSS" format).
//
// Usage:
//
//	vpstate inspect file.vps...      header, spec, counters, per-table occupancy
//	vpstate validate file.vps...     full integrity check, one line per file
//	vpstate diff a.vps b.vps         compare two snapshots
//
// inspect decodes each file (checksum included — a corrupt file never
// prints partial state) and reports the format version, predictor
// spec, session counters, and each predictor table's entry and live
// counts, reconstructed by restoring the state into a fresh predictor.
//
// validate exits 0 when every file decodes, restores, and re-exports
// byte-identical state; 1 otherwise.
//
// diff exits 0 when the two snapshots are equivalent (same canonical
// spec, counters and state bytes), 1 when they differ, 2 on error —
// the same contract as diff(1). For same-geometry tage snapshots the
// state diff additionally renders per-tagged-table diverging-entry
// counts, the provider-table-index histograms, and side-by-side
// usefulness-counter histograms.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/snapshot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses the subcommand and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "inspect":
		return runInspect(args[1:], stdout, stderr)
	case "validate":
		return runValidate(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "vpstate: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: vpstate inspect file.vps...")
	fmt.Fprintln(w, "       vpstate validate file.vps...")
	fmt.Fprintln(w, "       vpstate diff a.vps b.vps")
}

func runInspect(files []string, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(stderr, "vpstate inspect: no files")
		return 2
	}
	code := 0
	for _, path := range files {
		snap, err := snapshot.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "vpstate: %v\n", err)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "file:        %s\n", path)
		fmt.Fprintf(stdout, "version:     %d\n", snap.Version)
		fmt.Fprintf(stdout, "spec:        %s\n", snap.Spec)
		fmt.Fprintf(stdout, "session:     %d\n", snap.Meta.Session)
		if snap.Meta.Predictions > 0 {
			fmt.Fprintf(stdout, "predictions: %d\n", snap.Meta.Predictions)
			fmt.Fprintf(stdout, "hits:        %d (%.2f%%)\n", snap.Meta.Hits,
				100*float64(snap.Meta.Hits)/float64(snap.Meta.Predictions))
		} else {
			fmt.Fprintf(stdout, "predictions: 0\n")
			fmt.Fprintf(stdout, "hits:        %d\n", snap.Meta.Hits)
		}
		fmt.Fprintf(stdout, "updates:     %d\n", snap.Meta.Updates)
		fmt.Fprintf(stdout, "state:       %d bytes\n", len(snap.State))
		p, err := snap.Restore()
		if err != nil {
			fmt.Fprintf(stderr, "vpstate: %s: state does not restore: %v\n", path, err)
			code = 1
			continue
		}
		if st, ok := p.(core.StateTabler); ok {
			fmt.Fprintf(stdout, "tables:\n")
			for _, ti := range st.StateTables() {
				fmt.Fprintf(stdout, "  %-24s %8d entries %8d live\n", ti.Name, ti.Entries, ti.Live)
			}
		}
	}
	return code
}

func runValidate(files []string, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(stderr, "vpstate validate: no files")
		return 2
	}
	code := 0
	for _, path := range files {
		if err := validateFile(path); err != nil {
			fmt.Fprintf(stdout, "%s: INVALID: %v\n", path, err)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "%s: ok\n", path)
	}
	return code
}

// validateFile runs the full integrity chain: container decode
// (header, section structure, checksum), spec reconstruction, state
// restore, and a re-export check — restored state must serialize back
// to the same bytes, or the snapshot would drift across
// checkpoint/restore cycles.
func validateFile(path string) error {
	snap, err := snapshot.ReadFile(path)
	if err != nil {
		return err
	}
	p, err := snap.Restore()
	if err != nil {
		return err
	}
	again := p.(core.Snapshotter).AppendState(nil)
	if !bytes.Equal(again, snap.State) {
		return fmt.Errorf("restored state re-exports %d bytes that differ from the file's %d", len(again), len(snap.State))
	}
	return nil
}

func runDiff(files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "vpstate diff: need exactly two files")
		return 2
	}
	a, err := snapshot.ReadFile(files[0])
	if err != nil {
		fmt.Fprintf(stderr, "vpstate: %v\n", err)
		return 2
	}
	b, err := snapshot.ReadFile(files[1])
	if err != nil {
		fmt.Fprintf(stderr, "vpstate: %v\n", err)
		return 2
	}
	differ := false
	if a.Spec.Canonical() != b.Spec.Canonical() {
		fmt.Fprintf(stdout, "spec: %s | %s\n", a.Spec, b.Spec)
		differ = true
	}
	if a.Meta != b.Meta {
		fmt.Fprintf(stdout, "meta: session %d predictions %d hits %d updates %d | session %d predictions %d hits %d updates %d\n",
			a.Meta.Session, a.Meta.Predictions, a.Meta.Hits, a.Meta.Updates,
			b.Meta.Session, b.Meta.Predictions, b.Meta.Hits, b.Meta.Updates)
		differ = true
	}
	if !bytes.Equal(a.State, b.State) {
		fmt.Fprintf(stdout, "state: %d bytes | %d bytes (content differs)\n", len(a.State), len(b.State))
		// Per-table occupancy localizes where two same-spec snapshots
		// diverge without dumping raw state.
		at, aok := tableInfo(a)
		bt, bok := tableInfo(b)
		if aok && bok && len(at) == len(bt) {
			for i := range at {
				if at[i] != bt[i] {
					fmt.Fprintf(stdout, "  table %-24s %d/%d live | %d/%d live\n",
						at[i].Name, at[i].Live, at[i].Entries, bt[i].Live, bt[i].Entries)
				}
			}
		}
		diffTAGE(stdout, a, b)
		differ = true
	}
	if differ {
		return 1
	}
	fmt.Fprintf(stdout, "snapshots are equivalent\n")
	return 0
}

// tableInfo restores a snapshot and reports its table occupancy;
// ok is false when the state does not restore.
func tableInfo(s *snapshot.Snapshot) ([]core.TableInfo, bool) {
	p, err := s.Restore()
	if err != nil {
		return nil, false
	}
	st, ok := p.(core.StateTabler)
	if !ok {
		return nil, false
	}
	return st.StateTables(), true
}

// restoreTAGE restores a snapshot and unwraps it to the concrete TAGE
// predictor (a delayed tage restores to a wrapper, which falls back to
// the generic rendering above).
func restoreTAGE(s *snapshot.Snapshot) *core.TAGE {
	p, err := s.Restore()
	if err != nil {
		return nil
	}
	t, _ := p.(*core.TAGE)
	return t
}

// diffTAGE renders the tagged-geometry view of a state divergence:
// per-table diverging-entry counts, the two provider-table-index
// histograms (which table answers for each base slot), and each
// table's usefulness-counter histogram side by side. Quiet for
// non-tage or geometry-mismatched snapshots.
func diffTAGE(stdout io.Writer, a, b *snapshot.Snapshot) {
	ta, tb := restoreTAGE(a), restoreTAGE(b)
	if ta == nil || tb == nil {
		return
	}
	div, ok := ta.DivergingEntries(tb)
	if !ok {
		return
	}
	hists := ta.HistoryLengths()
	for t, n := range div {
		if n > 0 {
			fmt.Fprintf(stdout, "  tagged t%d(h%d): %d diverging entries\n", t+1, hists[t], n)
		}
	}
	fmt.Fprintf(stdout, "  provider histogram (t1..t%d, base): %v | %v\n",
		ta.NumTables(), ta.ProviderHistogram(), tb.ProviderHistogram())
	for t := 0; t < ta.NumTables(); t++ {
		ua, ub := ta.UHistogram(t), tb.UHistogram(t)
		if ua != ub {
			fmt.Fprintf(stdout, "  u-counters t%d (u0..u3): %v | %v\n", t+1, ua, ub)
		}
	}
}
