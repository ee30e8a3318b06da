// Package benchquality defines the BENCH_quality.json leaderboard format
// — the detection-quality record `roboads scenario run` appends and
// `cmd/benchdiff -quality` gates. Where bench/ measures serving speed,
// this record tracks how well the detector holds up against a scenario
// suite — per-scenario detection delay, false-positive/missed-detection
// rates, and alarm fractions — so every perf PR also proves it didn't
// regress detection quality.
package benchquality

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Version is the current BENCH_quality.json format version.
const Version = 1

// File is the on-disk leaderboard: one appended record per suite run.
type File struct {
	Version int       `json:"version"`
	Records []*Record `json:"records"`
}

// Record is one scenario-suite run: what was executed and what the
// detector did with it.
type Record struct {
	Label      string  `json:"label,omitempty"`
	RecordedAt string  `json:"recordedAt"`
	Config     Config  `json:"config"`
	Env        Env     `json:"environment"`
	Results    Results `json:"results"`
}

// Config identifies the exact workload. It is a comparable struct on
// purpose: benchdiff -quality only diffs records whose Config (and
// Label) are equal, and SuiteHash fingerprints the full DSL document, so
// a record from an edited or regenerated suite never masquerades as a
// baseline for another. Because suite execution is bit-for-bit
// reproducible from {seed, DSL}, two records with equal Config differ
// only by the code under test.
type Config struct {
	Suite     string `json:"suite"`
	SuiteHash string `json:"suiteHash"`
	Seed      int64  `json:"seed"`
	Trials    int    `json:"trials"`
	Scenarios int    `json:"scenarios"`
}

// Env captures the machine, for cross-run context (results are
// deterministic, so Env is informational rather than part of identity).
type Env struct {
	Go     string `json:"go"`
	OS     string `json:"os"`
	Arch   string `json:"arch"`
	NumCPU int    `json:"numcpu"`
}

// ScenarioRow is one scenario's aggregated outcome across its trials.
type ScenarioRow struct {
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Robot  string `json:"robot"`
	Trials int    `json:"trials"`
	// Sensor/Actuator FPR and FNR use the paper's identification-aware
	// per-iteration accounting, merged across trials.
	SensorFPR   float64 `json:"sensorFPR"`
	SensorFNR   float64 `json:"sensorFNR"`
	ActuatorFPR float64 `json:"actuatorFPR"`
	ActuatorFNR float64 `json:"actuatorFNR"`
	// MeanDelaySec averages onset-to-confirmation delay over the
	// (target, trial) pairs that were detected; −1 when none were.
	MeanDelaySec float64 `json:"meanDelaySec"`
	// DelaySec maps each attacked target (sensor name or "actuator") to
	// its mean detected delay, −1 when missed in every trial.
	DelaySec map[string]float64 `json:"delaySec,omitempty"`
	// AlarmFraction maps each target to the mean fraction of post-onset
	// iterations with that target confirmed.
	AlarmFraction map[string]float64 `json:"alarmFraction,omitempty"`
	// Missed counts (target, trial) pairs never detected.
	Missed int `json:"missed"`
}

// Results are the suite-level measurements.
type Results struct {
	Scenarios []ScenarioRow `json:"scenarios"`
	// Aggregates merge every scenario's per-iteration confusion counts.
	AvgSensorFPR   float64 `json:"avgSensorFPR"`
	AvgSensorFNR   float64 `json:"avgSensorFNR"`
	AvgActuatorFPR float64 `json:"avgActuatorFPR"`
	AvgActuatorFNR float64 `json:"avgActuatorFNR"`
	// AvgDelaySec averages over all detected (target, trial) pairs in
	// the suite; −1 when none detected.
	AvgDelaySec float64 `json:"avgDelaySec"`
	// Missed totals the never-detected (target, trial) pairs.
	Missed int `json:"missed"`
	// WallSeconds is informational (not gated): how long the run took.
	WallSeconds float64 `json:"wallSeconds,omitempty"`
}

// Load reads and parses a leaderboard file.
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

// Append adds r to the leaderboard at path, creating the file on first
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
