// Package benchserve defines the BENCH_serve.json trajectory format —
// the serving-stack benchmark record cmd/loadgen appends and
// cmd/benchdiff gates. It is the fleet-level counterpart of
// BENCH_engine.json: where that file tracks engine-step ns/op, this one
// tracks end-to-end serving capacity (frames/s, sessions/core), client
// latency quantiles, backpressure, crash-recovery time, and the
// server's own per-stage latency attribution.
package benchserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Version is the current BENCH_serve.json format version.
const Version = 1

// File is the on-disk trajectory: one appended record per loadgen run.
type File struct {
	Version int       `json:"version"`
	Records []*Record `json:"records"`
}

// Record is one loadgen run: what was driven, where, and what came out.
type Record struct {
	Label      string  `json:"label,omitempty"`
	RecordedAt string  `json:"recordedAt"`
	Config     Config  `json:"config"`
	Env        Env     `json:"environment"`
	Results    Results `json:"results"`
}

// Config is the run's load shape. It is a comparable struct on
// purpose: benchdiff -serve only diffs records whose Config (and Label)
// are equal, so a 64-session run never masquerades as a baseline for an
// 8-session one.
type Config struct {
	Sessions        int     `json:"sessions"`
	RateHz          float64 `json:"rateHz"` // per session; 0 = closed loop
	Batch           int     `json:"batch"`
	Wire            string  `json:"wire"`
	Robot           string  `json:"robot"`
	DurationSeconds float64 `json:"durationSeconds"`
	CommitWindowMs  float64 `json:"commitWindowMs"`
	Crash           bool    `json:"crash"`
	Spawned         bool    `json:"spawned"`
	// Nodes > 1 means a spawned multi-node cluster (that many serve
	// processes behind a router); 0/1 is the single-node harness.
	Nodes int `json:"nodes,omitempty"`
	// Migrate means half the sessions were live-migrated at half time.
	Migrate bool `json:"migrate,omitempty"`
}

// Env captures the machine, for cross-run comparability.
type Env struct {
	Go     string `json:"go"`
	OS     string `json:"os"`
	Arch   string `json:"arch"`
	NumCPU int    `json:"numcpu"`
}

// LatencyMs is a latency summary in milliseconds.
type LatencyMs struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// Results are the run's measurements.
type Results struct {
	FramesSent  int `json:"framesSent"`
	FramesAcked int `json:"framesAcked"`
	// ClientRetries counts 429 resubmissions (client-observed
	// backpressure; the streaming endpoint absorbs its backpressure
	// server-side, visible in RejectsByCause instead).
	ClientRetries int `json:"clientRetries"`
	// SessionErrors counts sessions that ended their drive on an error.
	SessionErrors   int     `json:"sessionErrors"`
	FramesPerSecond float64 `json:"framesPerSecond"`
	// SessionsPerCore is acked frames/s per CPU — the capacity figure:
	// how many 1-frame/s robot sessions one core of this machine
	// sustains at this configuration.
	SessionsPerCore float64 `json:"sessionsPerCore"`
	// BackpressureRate is rejected submissions over all submissions,
	// combining client 429s and the server's cause-split counters.
	BackpressureRate float64          `json:"backpressureRate"`
	RejectsByCause   map[string]int64 `json:"rejectsByCause,omitempty"`
	// StepLatencyMs is client-observed: first submission to final ack.
	StepLatencyMs LatencyMs `json:"stepLatencyMs"`
	// Server-side frame-trace attribution (from /v1/debug/trace).
	ServerFrames     int64              `json:"serverFrames"`
	ServerE2EMs      LatencyMs          `json:"serverE2eMs"`
	ServerStageP50Ms map[string]float64 `json:"serverStageP50Ms,omitempty"`
	StageSumP50Ms    float64            `json:"stageSumP50Ms"`
	// AttributionError is |stage p50 sum − e2e p50| / e2e p50 — the
	// span self-validation figure (0 when the server traced nothing).
	AttributionError float64 `json:"attributionError"`
	// RecoverySeconds is kill -9 to all sessions live again (crash runs
	// only).
	RecoverySeconds float64 `json:"recoverySeconds,omitempty"`
}

// Load reads and parses a trajectory file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &f, nil
}

// Append adds r to the trajectory at path, creating the file on first
// use.
func Append(path string, r *Record) error {
	var file File
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		file.Version = Version
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		if file.Version == 0 {
			file.Version = Version
		}
	}
	file.Records = append(file.Records, r)
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
