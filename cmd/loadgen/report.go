package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"roboads/client"
	"roboads/internal/benchserve"
	"roboads/internal/fleet"
	"roboads/internal/telemetry"
)

// Record aliases the shared BENCH_serve.json record type
// (internal/benchserve) that cmd/benchdiff -serve gates.
type Record = benchserve.Record

// quantiles summarizes a latency sample in milliseconds.
func quantiles(secs []float64) benchserve.LatencyMs {
	if len(secs) == 0 {
		return benchserve.LatencyMs{}
	}
	s := append([]float64(nil), secs...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] * 1e3 }
	return benchserve.LatencyMs{P50: q(0.50), P95: q(0.95), P99: q(0.99), Max: s[len(s)-1] * 1e3}
}

// metricsSnapshot is the slice of /snapshot loadgen reads: the
// telemetry registry map nested under the snapshot's "metrics" key.
type metricsSnapshot struct {
	Metrics struct {
		Counters   map[string]int64                       `json:"counters"`
		Gauges     map[string]float64                     `json:"gauges"`
		Histograms map[string]telemetry.HistogramSnapshot `json:"histograms"`
	} `json:"metrics"`
}

func scrapeSnapshot(base string) (*metricsSnapshot, error) {
	var snap metricsSnapshot
	if err := getJSON(base+"/snapshot", &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func scrapeTrace(base string) (*telemetry.TraceSnapshot, error) {
	raw, err := client.New(base).DebugTrace(context.Background())
	if err != nil {
		return nil, err
	}
	var snap telemetry.TraceSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// rejectDeltas diffs the cause-split reject counters across the run.
// A crash run restarts the server (fresh counters), so causes are
// floored at zero rather than trusting the subtraction.
func rejectDeltas(start, end *metricsSnapshot) map[string]int64 {
	causes := []string{
		fleet.RejectCauseQueueFull, fleet.RejectCauseSessionClosed,
		fleet.RejectCauseShuttingDown, fleet.RejectCauseSessionCap,
	}
	out := make(map[string]int64, len(causes))
	for _, cause := range causes {
		name := fleet.MetricRejects + `{cause="` + cause + `"}`
		if d := end.Metrics.Counters[name] - start.Metrics.Counters[name]; d > 0 {
			out[cause] = d
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func buildRecord(cfg config, results []sessionResult, driveSeconds, recovery float64,
	startSnap, endSnap *metricsSnapshot, tr *telemetry.TraceSnapshot) *Record {
	var sent, acked, retries, errs int
	var lats []float64
	for i := range results {
		sent += results[i].sent
		acked += results[i].acked
		retries += results[i].retries
		lats = append(lats, results[i].latencies...)
		if results[i].err != nil {
			errs++
			fmt.Fprintf(os.Stderr, "session %d error: %v\n", i, results[i].err)
		}
	}
	rejects := rejectDeltas(startSnap, endSnap)
	var serverRejects int64
	for _, n := range rejects {
		serverRejects += n
	}
	res := benchserve.Results{
		FramesSent:      sent,
		FramesAcked:     acked,
		ClientRetries:   retries,
		SessionErrors:   errs,
		StepLatencyMs:   quantiles(lats),
		RejectsByCause:  rejects,
		RecoverySeconds: recovery,
	}
	if driveSeconds > 0 {
		res.FramesPerSecond = float64(acked) / driveSeconds
		res.SessionsPerCore = res.FramesPerSecond / float64(runtime.NumCPU())
	}
	// Client 429s and server-side rejects overlap for /step (each 429
	// is one queue_full reject), so take whichever view saw more rather
	// than double-counting.
	if rejected := math.Max(float64(retries), float64(serverRejects)); rejected > 0 {
		res.BackpressureRate = rejected / (float64(acked) + rejected)
	}
	if tr != nil && tr.Enabled && tr.Frames > 0 {
		res.ServerFrames = tr.Frames
		res.ServerE2EMs = benchserve.LatencyMs{P50: tr.E2E.P50 * 1e3, P95: tr.E2E.P95 * 1e3, P99: tr.E2E.P99 * 1e3, Max: tr.E2E.Max * 1e3}
		res.StageSumP50Ms = tr.StageSumP50Seconds * 1e3
		res.ServerStageP50Ms = make(map[string]float64, len(tr.Stages))
		for stage, hs := range tr.Stages {
			res.ServerStageP50Ms[stage] = hs.P50 * 1e3
		}
		if tr.E2E.P50 > 0 {
			res.AttributionError = math.Abs(tr.StageSumP50Seconds-tr.E2E.P50) / tr.E2E.P50
		}
	}
	return &Record{
		Label:      cfg.label,
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		Config: benchserve.Config{
			Sessions:        cfg.sessions,
			RateHz:          cfg.rate,
			Batch:           cfg.batch,
			Wire:            cfg.wire,
			Robot:           cfg.robot,
			DurationSeconds: cfg.duration.Seconds(),
			CommitWindowMs:  float64(cfg.commitWindow) / float64(time.Millisecond),
			Crash:           cfg.crash,
			Spawned:         cfg.spawn,
			Nodes:           cfg.nodes,
			Migrate:         cfg.migrate,
		},
		Env: benchserve.Env{
			Go:     runtime.Version(),
			OS:     runtime.GOOS,
			Arch:   runtime.GOARCH,
			NumCPU: runtime.NumCPU(),
		},
		Results: res,
	}
}

func printRecord(w io.Writer, r *Record) {
	fmt.Fprintf(w, "sent %d, acked %d (%.0f frames/s, %.1f sessions/core), retries %d, backpressure %.2f%%\n",
		r.Results.FramesSent, r.Results.FramesAcked, r.Results.FramesPerSecond,
		r.Results.SessionsPerCore, r.Results.ClientRetries, 100*r.Results.BackpressureRate)
	fmt.Fprintf(w, "step latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n",
		r.Results.StepLatencyMs.P50, r.Results.StepLatencyMs.P95,
		r.Results.StepLatencyMs.P99, r.Results.StepLatencyMs.Max)
	if r.Results.ServerFrames > 0 {
		fmt.Fprintf(w, "server e2e ms: p50 %.3f  p95 %.3f  p99 %.3f (stage p50 sum %.3f, attribution error %.1f%%)\n",
			r.Results.ServerE2EMs.P50, r.Results.ServerE2EMs.P95, r.Results.ServerE2EMs.P99,
			r.Results.StageSumP50Ms, 100*r.Results.AttributionError)
	}
	if r.Results.RecoverySeconds > 0 {
		fmt.Fprintf(w, "recovery after kill -9: %.3fs\n", r.Results.RecoverySeconds)
	}
}

// appendRecord adds r to the trajectory at path.
func appendRecord(path string, r *Record) error {
	return benchserve.Append(path, r)
}
