package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one harness-side timing of a call into a layer. Spans of one
// closed-loop operation share Op; Parent is the ID of the span that
// caused this one (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer was created
	End    int64  `json:"endNs"`
}

// maxKeptSpans bounds the spans held for spans.json; detect_replay alone
// makes a million in a traced run. Every span still feeds the per-name
// duration and self-time samples.
const maxKeptSpans = 100_000

// tracer collects harness-side spans in memory. A nil tracer, or one that
// is switched off, records nothing, so the same driver code runs traced
// and untraced. Safe for concurrent use.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu     sync.Mutex
	nextID int64
	kept   []span
	total  int64
	dur    map[string][]float64 // span durations by name, in µs
	self   map[string][]float64 // durations minus time covered by children
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), dur: make(map[string][]float64), self: make(map[string][]float64)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) set(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// opTrace builds the span tree of one operation without locking; end
// hands it to the tracer in one step.
type opTrace struct {
	t     *tracer
	spans []span
}

// begin starts a traced operation, or returns nil when tracing is off;
// every opTrace method accepts a nil receiver.
func (t *tracer) begin() *opTrace {
	if !t.enabled() {
		return nil
	}
	return &opTrace{t: t}
}

// add records a finished call. parent indexes an earlier add of the same
// operation, or is -1 for the root. It returns the new span's index.
func (o *opTrace) add(name string, parent int, start, end time.Time) int {
	if o == nil {
		return -1
	}
	o.spans = append(o.spans, span{
		Parent: int64(parent + 1), // 1-based index for now; end rewrites it to an ID
		Name:   name,
		Start:  int64(start.Sub(o.t.t0)),
		End:    int64(end.Sub(o.t.t0)),
	})
	return len(o.spans) - 1
}

// covered returns how much of span i its direct children cover. Children
// may overlap (a parallel mode bank), so it is the length of their union.
func (o *opTrace) covered(i int) int64 {
	var kids []span
	for _, s := range o.spans {
		if s.Parent == int64(i+1) {
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total, reach int64
	for _, k := range kids {
		from := max(k.Start, reach, o.spans[i].Start)
		to := min(k.End, o.spans[i].End)
		if to > from {
			total += to - from
			reach = to
		}
	}
	return total
}

// end files the operation's spans with the tracer.
func (o *opTrace) end() {
	if o == nil || len(o.spans) == 0 {
		return
	}
	t := o.t
	self := make([]float64, len(o.spans))
	for i, s := range o.spans {
		self[i] = float64(s.End-s.Start-o.covered(i)) / 1e3
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.nextID
	t.nextID += int64(len(o.spans))
	op := base + 1
	for i := range o.spans {
		s := &o.spans[i]
		s.ID = base + int64(i) + 1
		s.Op = op
		if s.Parent != 0 {
			s.Parent += base
		}
		d := float64(s.End-s.Start) / 1e3
		t.dur[s.Name] = append(t.dur[s.Name], d)
		t.self[s.Name] = append(t.self[s.Name], self[i])
		t.total++
		if len(t.kept) < maxKeptSpans {
			t.kept = append(t.kept, *s)
		}
	}
}

// p50 returns the median duration in µs of the spans called name.
func (t *tracer) p50(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.dur[name])
}

// selfP50 returns the median self time in µs of the spans called name.
func (t *tracer) selfP50(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.self[name])
}

// spanSummary is one row of the per-name table in spans.json.
type spanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	P50Us     float64 `json:"p50Us"`
	SelfP50Us float64 `json:"selfP50Us"`
}

// write dumps the kept spans and the per-name summary to path.
func (t *tracer) write(path string, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var names []string
	for name := range t.dur {
		names = append(names, name)
	}
	sort.Strings(names)
	summary := make([]spanSummary, 0, len(names))
	for _, name := range names {
		summary = append(summary, spanSummary{
			Name: name, Count: len(t.dur[name]),
			P50Us: median(t.dur[name]), SelfP50Us: median(t.self[name]),
		})
	}
	doc := struct {
		Workload string        `json:"workload"`
		Recorded int64         `json:"spansRecorded"`
		Kept     int           `json:"spansKept"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, t.total, len(t.kept), summary, t.kept}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
