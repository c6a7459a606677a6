package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the enclosing span's
// index (-1 for a root) and always lies around the child in time. Host
// names the layer whose public call hides a probe span's work: a probe
// re-runs that layer's exported entry on the same input outside the
// host call, so its time is never part of setup.
type span struct {
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Host     string `json:"host,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how timed runs keep tracing off.
type tracer struct {
	origin   time.Time
	workload string
	rep      int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{origin: time.Now(), workload: workload}
}

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	return t.beginProbe(name, parent, "")
}

// beginProbe opens a probe span for a layer hidden inside host.
func (t *tracer) beginProbe(name string, parent int, host string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Host: host,
		StartNs: int64(time.Since(t.origin)), Workload: t.workload, Rep: t.rep})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	t.spans[i].EndNs = int64(time.Since(t.origin))
	return t.spans[i].dur()
}

// write emits every span as one JSON object per line.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].StartNs, s.StartNs), min(spans[k].EndNs, s.EndNs)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64 = 0, s.StartNs
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// checkNesting reports the first span that is unclosed, points at a
// later or missing parent, or lies outside its parent's interval.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("trace: span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("trace: span %d (%s) has parent %d opened after it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("trace: span %d (%s) lies outside its parent %s", i, s.Name, p.Name)
		}
	}
	return nil
}
