package telemetry

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Frame-lifecycle tracing (DESIGN.md §13): every frame accepted by the
// fleet can carry a Span — a record of monotonic stage timestamps from
// HTTP decode through reply flush. Stages are contiguous laps, so per-
// stage attribution sums exactly to the span's end-to-end wall time:
// the spans are self-validating, and a stage histogram whose p50s do
// not roughly sum to the end-to-end p50 indicates a measurement bug,
// not a serving anomaly.
//
// The whole layer is contractually free when disabled: a nil *Tracer
// begets nil *Span values, every Span method is a nil-receiver no-op
// (one pointer compare, no clock read, no allocation), and the fleet
// allocates nothing span-related on the disabled path — pinned by the
// benchoverhead allocs gate on BenchmarkFleetStep.

// Stage indexes one contiguous segment of a frame's server-side
// lifecycle. The segments partition decode-to-flush wall time.
type Stage uint8

const (
	// StageDecode is wire read + frame decode (for streamed frames,
	// only time spent on bytes already buffered — client think time
	// between frames is not part of any span).
	StageDecode Stage = iota
	// StageAdmit is submit-path work up to queue admission, including
	// any server-side backpressure retry wait on the streaming path.
	StageAdmit
	// StageQueueWait is queued-to-dequeued: time the frame sat in the
	// session's bounded queue before a quantum picked its job up.
	StageQueueWait
	// StageCoalesce is dequeue-to-step-start: batch position wait (a
	// frame deep in a batch steps after its predecessors) plus any
	// coalesced-quantum staging.
	StageCoalesce
	// StageStep is the detector step itself.
	StageStep
	// StageWALAppend is the encoding of the frame's log record.
	StageWALAppend
	// StageFsync is durability wait: the write of the job's records and
	// the group-commit barrier — for a frame early in a batch this
	// includes the time its batch-mates spent stepping before the shared
	// fsync, which is exactly the latency cost group commit trades for
	// throughput.
	StageFsync
	// StageReply is step-done-to-flushed: reply scheduling, encode, and
	// the flush to the client socket.
	StageReply
	// StageCount sizes per-stage arrays.
	StageCount
)

// stageNames are the wire/metric names, index-aligned with the Stage
// constants.
var stageNames = [StageCount]string{
	"decode", "admit", "queue_wait", "coalesce",
	"step", "wal_append", "fsync", "reply",
}

// String returns the stage's wire name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Frame-tracing metric names. Each stage gets its own histogram family
// (the registry's histograms are label-free), plus the end-to-end
// family their laps sum to.
const (
	// MetricFrameE2ESeconds is the decode-to-flush wall time histogram.
	MetricFrameE2ESeconds = "roboads_frame_e2e_seconds"
	// metricFrameStageFmt shapes the per-stage histogram names:
	// roboads_frame_stage_<stage>_seconds.
	metricFrameStagePrefix = "roboads_frame_stage_"
	metricFrameStageSuffix = "_seconds"
)

// MetricFrameStageSeconds returns the histogram name for one stage.
func MetricFrameStageSeconds(s Stage) string {
	return metricFrameStagePrefix + s.String() + metricFrameStageSuffix
}

// exemplarCap is the reservoir size for sampled whole-span exemplars.
const exemplarCap = 64

// Span is one frame's lifecycle record. Obtain it from Tracer.Begin;
// a nil Span (disabled tracing) accepts every method as a no-op.
// A Span is owned by one goroutine at a time and handed off with the
// frame it annotates; it is not safe for concurrent use.
type Span struct {
	tr      *Tracer
	session string
	k       int
	start   time.Time
	last    time.Time
	marks   [StageCount]int64 // nanoseconds per stage
}

// SetK records the frame's iteration index for the exemplar.
func (sp *Span) SetK(k int) {
	if sp == nil {
		return
	}
	sp.k = k
}

// Lap attributes the time since the previous lap (or Begin) to stage
// and advances the lap clock. Laps are cumulative: lapping the same
// stage twice adds.
func (sp *Span) Lap(stage Stage) {
	if sp == nil {
		return
	}
	now := time.Now()
	sp.marks[stage] += now.Sub(sp.last).Nanoseconds()
	sp.last = now
}

// Finish closes the span: end-to-end and per-stage latencies are
// observed into the tracer's histograms, the span may be reservoir-
// sampled as an exemplar, and its storage returns to the pool. The
// span must not be touched afterwards.
func (sp *Span) Finish() {
	if sp == nil {
		return
	}
	sp.tr.finish(sp)
}

// Drop abandons the span without observing it (frame rejected before
// it had a lifecycle worth recording), returning its storage to the
// pool.
func (sp *Span) Drop() {
	if sp == nil {
		return
	}
	sp.tr.pool.Put(sp)
}

// Exemplar is one reservoir-sampled whole span, as served by
// /v1/debug/trace.
type Exemplar struct {
	// Session and K identify the frame.
	Session string `json:"session"`
	K       int    `json:"k"`
	// StartUnixNanos is the span's wall-clock start.
	StartUnixNanos int64 `json:"startUnixNanos"`
	// TotalNanos is decode-to-flush wall time — always exactly the sum
	// of StageNanos (the laps partition it).
	TotalNanos int64 `json:"totalNanos"`
	// StageNanos maps stage name to attributed nanoseconds; zero stages
	// are omitted.
	StageNanos map[string]int64 `json:"stageNanos"`
}

// exemplar is the allocation-light internal form; the JSON map is
// materialized only at snapshot time.
type exemplar struct {
	session    string
	k          int
	startUnix  int64
	totalNanos int64
	marks      [StageCount]int64
}

// Tracer owns the frame-lifecycle instrumentation: per-stage and
// end-to-end histograms in a Registry, a span pool, and a reservoir of
// sampled exemplars. A nil *Tracer is the disabled state — Begin
// returns nil and Snapshot reports Enabled false.
type Tracer struct {
	reg   *Registry
	e2e   *Histogram
	stage [StageCount]*Histogram
	pool  sync.Pool

	mu        sync.Mutex
	reservoir []exemplar
	seen      int64
	rng       uint64
}

// NewTracer registers the frame-tracing histograms in reg (nil: a
// private registry) and returns an enabled tracer.
func NewTracer(reg *Registry) *Tracer {
	if reg == nil {
		reg = NewRegistry()
	}
	t := &Tracer{
		reg:       reg,
		reservoir: make([]exemplar, 0, exemplarCap),
		rng:       0x9E3779B97F4A7C15,
	}
	bounds := traceLatencyBuckets()
	t.e2e = reg.Histogram(MetricFrameE2ESeconds, "Frame decode-to-flush wall time in seconds.", bounds)
	for s := Stage(0); s < StageCount; s++ {
		t.stage[s] = reg.Histogram(MetricFrameStageSeconds(s),
			"Frame lifecycle stage '"+s.String()+"' latency in seconds.", bounds)
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// traceLatencyBuckets extends the standard latency layout down to
// 100ns: queue and coalesce waits of an unloaded fleet sit well below
// the engine step's microseconds.
func traceLatencyBuckets() []float64 {
	return append([]float64{1e-7, 2e-7, 5e-7}, LatencyBuckets()...)
}

// Begin opens a span for one frame of a session, with the lap clock
// anchored at start (the instant the frame's bytes began decoding).
// Returns nil — the universal no-op span — on a nil tracer.
func (t *Tracer) Begin(session string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	sp := t.pool.Get().(*Span)
	sp.tr = t
	sp.session = session
	sp.k = 0
	sp.start = start
	sp.last = start
	clear(sp.marks[:])
	return sp
}

func (t *Tracer) finish(sp *Span) {
	var total int64
	for s := Stage(0); s < StageCount; s++ {
		m := sp.marks[s]
		if m <= 0 {
			continue
		}
		total += m
		t.stage[s].Observe(float64(m) * 1e-9)
	}
	t.e2e.Observe(float64(total) * 1e-9)
	t.sample(sp, total)
	t.pool.Put(sp)
}

// sample reservoir-samples the finished span (algorithm R: the first
// exemplarCap spans always enter; afterwards span n replaces a random
// slot with probability cap/n), so the exemplar set stays an unbiased
// sample of the whole run, not just its tail.
func (t *Tracer) sample(sp *Span, total int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seen++
	var slot int
	if len(t.reservoir) < exemplarCap {
		t.reservoir = append(t.reservoir, exemplar{})
		slot = len(t.reservoir) - 1
	} else {
		// xorshift64: cheap, deterministic, and plenty uniform for
		// sampling decisions.
		t.rng ^= t.rng << 13
		t.rng ^= t.rng >> 7
		t.rng ^= t.rng << 17
		j := int64(t.rng % uint64(t.seen))
		if j >= exemplarCap {
			return
		}
		slot = int(j)
	}
	t.reservoir[slot] = exemplar{
		session:    sp.session,
		k:          sp.k,
		startUnix:  sp.start.UnixNano(),
		totalNanos: total,
		marks:      sp.marks,
	}
}

// TraceSnapshot is the /v1/debug/trace response: per-stage and
// end-to-end latency summaries plus the sampled exemplars.
type TraceSnapshot struct {
	// Enabled is false when the server runs without frame tracing; all
	// other fields are then zero.
	Enabled bool `json:"enabled"`
	// Frames is the number of finished spans.
	Frames int64 `json:"frames"`
	// E2E summarizes decode-to-flush wall time.
	E2E HistogramSnapshot `json:"e2e"`
	// Stages maps stage name to its latency summary; stages never
	// exercised (e.g. fsync without durability) are omitted.
	Stages map[string]HistogramSnapshot `json:"stages"`
	// StageSumP50Seconds is the sum of the per-stage p50s — the
	// self-validation figure that must land within measurement noise of
	// E2E.P50 (sums of quantiles are not quantiles of sums, so the two
	// agree only approximately; a gross mismatch means broken laps).
	StageSumP50Seconds float64 `json:"stageSumP50Seconds"`
	// Exemplars are the reservoir-sampled whole spans.
	Exemplars []Exemplar `json:"exemplars"`
}

// Snapshot returns the current trace state. Nil-safe: a nil tracer
// reports Enabled false.
func (t *Tracer) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	snap := TraceSnapshot{
		Enabled: true,
		Frames:  t.e2e.Count(),
		E2E:     t.e2e.snapshot(),
		Stages:  make(map[string]HistogramSnapshot, StageCount),
	}
	for s := Stage(0); s < StageCount; s++ {
		if t.stage[s].Count() == 0 {
			continue
		}
		hs := t.stage[s].snapshot()
		snap.Stages[s.String()] = hs
		snap.StageSumP50Seconds += hs.P50
	}
	t.mu.Lock()
	snap.Exemplars = make([]Exemplar, 0, len(t.reservoir))
	for _, e := range t.reservoir {
		ex := Exemplar{
			Session:        e.session,
			K:              e.k,
			StartUnixNanos: e.startUnix,
			TotalNanos:     e.totalNanos,
			StageNanos:     make(map[string]int64, StageCount),
		}
		for s := Stage(0); s < StageCount; s++ {
			if e.marks[s] > 0 {
				ex.StageNanos[s.String()] = e.marks[s]
			}
		}
		snap.Exemplars = append(snap.Exemplars, ex)
	}
	t.mu.Unlock()
	return snap
}

// ServeTrace writes the trace snapshot as indented JSON — the body of
// GET /v1/debug/trace. Nil-safe: a disabled tracer serves
// {"enabled": false}.
func (t *Tracer) ServeTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(t.Snapshot())
}
