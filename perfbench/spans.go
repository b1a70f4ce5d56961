package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Spans of one frame (or one offline regeneration) share an
// ID; Parent indexes the enclosing span in the same log, or is -1 for
// a root.
type span struct {
	ID         uint64
	Name       string
	Parent     int
	Start, End int64 // ns since the log's epoch
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per call. A log
// is owned by one goroutine; concurrent recorders each keep their own
// and merge afterwards, or hand their timestamps to the owner.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog(epoch time.Time) *spanLog { return &spanLog{epoch: epoch} }

// add records a span the caller timed and returns its index for
// children; it returns -1 on a nil log.
func (l *spanLog) add(id uint64, name string, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{ID: id, Name: name, Parent: parent,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch))})
	return len(l.spans) - 1
}

// merge appends other's spans, rebasing their parent indexes. Both
// logs must share an epoch.
func (l *spanLog) merge(other *spanLog) {
	if l == nil || other == nil {
		return
	}
	base := len(l.spans)
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}

// selfTimes returns, per span name, the summed self time in ns: each
// span's duration minus the part of its interval that its child spans
// cover. Overlapping children (concurrent calls under one parent) are
// counted once.
func selfTimes(spans []span) map[string]int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped
// to the parent's.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// totals returns, per span name, the summed duration in ns and the
// span count.
func totals(spans []span) (dur map[string]int64, n map[string]int) {
	dur, n = make(map[string]int64), make(map[string]int)
	for _, s := range spans {
		dur[s.Name] += s.End - s.Start
		n[s.Name]++
	}
	return dur, n
}

// writeSpans writes one tab-separated line per span: index, id, name,
// parent index, start ns, end ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tid\tname\tparent\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.ID, s.Name, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
