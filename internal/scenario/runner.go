package scenario

import (
	"fmt"
	"io"
	"math"
	"sync"

	"roboads/internal/metrics"
	"roboads/internal/robot"
	"roboads/internal/sim"
	"roboads/internal/stat"
)

// RunConfig shapes suite execution.
type RunConfig struct {
	// Trials runs each scenario this many times with seeds
	// Seed, Seed+1, ...; 0 means 1.
	Trials int
	// Workers runs that many missions concurrently; 0/1 is sequential.
	// Each mission owns its simulator and detector, so results are
	// bit-for-bit identical for any value.
	Workers int
}

// TargetStats is one attacked target's outcome in a scenario,
// aggregated over trials. The target is a sensor workflow name or
// "actuator".
type TargetStats struct {
	// Onset is the attack-onset iteration (trial 0), −1 when the target's
	// window never opens within the mission.
	Onset int `json:"onset"`
	// DelaySec is the mean onset-to-confirmation delay over detected
	// trials, −1 when no trial detected it.
	DelaySec float64 `json:"delaySec"`
	// AlarmFraction is the mean fraction of post-onset iterations with
	// this target confirmed.
	AlarmFraction float64 `json:"alarmFraction"`
	// Missed counts trials where the target was never confirmed
	// post-onset, or its window never opened.
	Missed int `json:"missed"`
}

// Result is one scenario's outcome aggregated over its trials.
type Result struct {
	Name       string `json:"name"`
	Class      string `json:"class,omitempty"`
	Robot      string `json:"robot"`
	Trials     int    `json:"trials"`
	Iterations int    `json:"iterations"` // total across trials
	// SensorConfusion and ActuatorConfusion merge the per-iteration
	// identification-aware accounting across trials.
	SensorConfusion   metrics.Confusion `json:"sensorConfusion"`
	ActuatorConfusion metrics.Confusion `json:"actuatorConfusion"`
	// Targets maps each attacked sensor (and "actuator") to its stats.
	Targets map[string]TargetStats `json:"targets,omitempty"`
	// MeanDelaySec averages over all detected (target, trial) pairs;
	// −1 when none detected (or nothing was attacked).
	MeanDelaySec float64 `json:"meanDelaySec"`
	// Missed counts (target, trial) pairs never detected.
	Missed int `json:"missed"`
	// Intervals bound the metrics above over trials; nil with one trial.
	Intervals *Intervals `json:"intervals,omitempty"`

	delaySum float64 // detected delay seconds, for suite aggregation
	detected int
}

// Intervals are the percentile-bootstrap intervals (stat.Bootstrap) of a
// result's rates and mean delay: each resample draws the trials with
// replacement and pools their counts and delays as the point estimate
// pools all of them. A nil field is undefined on every resample (a delay
// with nothing detected).
type Intervals struct {
	SensorFPR   *stat.Interval `json:"sensorFPR,omitempty"`
	SensorFNR   *stat.Interval `json:"sensorFNR,omitempty"`
	ActuatorFPR *stat.Interval `json:"actuatorFPR,omitempty"`
	ActuatorFNR *stat.Interval `json:"actuatorFNR,omitempty"`
	DelaySec    *stat.Interval `json:"delaySec,omitempty"`
}

// SuiteResult is a full suite run.
type SuiteResult struct {
	Suite   string   `json:"suite"`
	Seed    int64    `json:"seed"`
	Trials  int      `json:"trials"`
	Results []Result `json:"results"`
	// Suite-level merges of every scenario's confusion counts.
	SensorConfusion   metrics.Confusion `json:"sensorConfusion"`
	ActuatorConfusion metrics.Confusion `json:"actuatorConfusion"`
	// AvgDelaySec averages over all detected (target, trial) pairs in
	// the suite; −1 when none.
	AvgDelaySec float64 `json:"avgDelaySec"`
	Missed      int     `json:"missed"`
	// Intervals bound the suite's metrics over trials, a resample drawing
	// whole trials (every scenario at one seed); nil with one trial.
	Intervals *Intervals `json:"intervals,omitempty"`
}

// maxIterations is the scenario's iteration cap.
func (sc *Scenario) maxIterations() int {
	if sc.Iterations > 0 {
		return sc.Iterations
	}
	return MaxIterations
}

// Frames steps one trial's simulator alone to the end of its mission (or
// the scenario's iteration cap) and returns the frames RunSuite would
// feed a detector, with the profile that detector is built from — for
// tests and benchmarks that replay one frame set through many detectors.
func Frames(sc *Scenario, seed int64) (robot.Profile, []*sim.StepRecord, error) {
	compiled, err := sc.Compile(1000)
	if err != nil {
		return robot.Profile{}, nil, err
	}
	prof, step, err := newSim(sc.Robot, sc.World, &compiled, seed)
	if err != nil {
		return robot.Profile{}, nil, err
	}
	var recs []*sim.StepRecord
	for len(recs) < sc.maxIterations() {
		rec, err := step()
		if err != nil {
			break // mission over
		}
		recs = append(recs, rec)
		if rec.Done {
			break
		}
	}
	return prof, recs, nil
}

// trialScore is what aggregate reads of one trial: the results of its
// Run's accounting. A suite keeps these rather than the Runs, so it holds
// no more traces than it has missions in flight.
type trialScore struct {
	iterations       int
	sensor, actuator metrics.Confusion
	targets          []Target
	dt               float64
}

// trialTotals is what an interval pools of one trial: its confusion
// counts and the delays of the targets it detected.
type trialTotals struct {
	sensor, actuator metrics.Confusion
	delaySum         float64
	detected         int
}

func (t *trialTotals) add(o trialTotals) {
	t.sensor.Merge(o.sensor)
	t.actuator.Merge(o.actuator)
	t.delaySum += o.delaySum
	t.detected += o.detected
}

// bootstrapSeed roots every interval's resampling. Each result forks its
// own stream by name, so a scenario's intervals do not depend on which
// other scenarios share its suite, and all five of a result's intervals
// read the same resamples.
const bootstrapSeed = 0x0b007

// intervals bootstraps a result's metrics over its trials' totals; nil
// with fewer than two trials.
func intervals(name string, totals []trialTotals) *Intervals {
	if len(totals) < 2 {
		return nil
	}
	ci := func(metric func(trialTotals) float64) *stat.Interval {
		iv, ok := stat.Bootstrap(len(totals), func(trials []int) float64 {
			var pool trialTotals
			for _, t := range trials {
				pool.add(totals[t])
			}
			return metric(pool)
		}, stat.NewRNG(bootstrapSeed).Fork(name))
		if !ok {
			return nil
		}
		return &iv
	}
	return &Intervals{
		SensorFPR:   ci(func(p trialTotals) float64 { return p.sensor.FPR() }),
		SensorFNR:   ci(func(p trialTotals) float64 { return p.sensor.FNR() }),
		ActuatorFPR: ci(func(p trialTotals) float64 { return p.actuator.FPR() }),
		ActuatorFNR: ci(func(p trialTotals) float64 { return p.actuator.FNR() }),
		DelaySec: ci(func(p trialTotals) float64 {
			if p.detected == 0 {
				return math.NaN()
			}
			return p.delaySum / float64(p.detected)
		}),
	}
}

// aggregate reduces one scenario's trials to a Result, and returns each
// trial's totals for the suite's intervals. Every trial lists the same
// targets in the same order (Run.Targets), so sums over them repeat to
// the last bit.
func aggregate(sc *Scenario, trials []trialScore) (Result, []trialTotals) {
	r := Result{
		Name:         sc.Name,
		Class:        sc.Class,
		Robot:        sc.Robot,
		Trials:       len(trials),
		Targets:      make(map[string]TargetStats),
		MeanDelaySec: -1,
	}
	totals := make([]trialTotals, len(trials))
	for t, ts := range trials {
		r.Iterations += ts.iterations
		r.SensorConfusion.Merge(ts.sensor)
		r.ActuatorConfusion.Merge(ts.actuator)
		totals[t].sensor, totals[t].actuator = ts.sensor, ts.actuator
	}
	dt := trials[0].dt
	for i, first := range trials[0].targets {
		stats := TargetStats{Onset: first.Onset}
		delays := make([]metrics.Delay, len(trials))
		for t := range trials {
			target := trials[t].targets[i]
			delays[t] = target.Delay
			stats.AlarmFraction += target.AlarmFraction
			if target.Delay.Detected < 0 {
				stats.Missed++
			} else {
				d := target.Delay.Seconds(dt)
				r.delaySum += d
				r.detected++
				totals[t].delaySum += d
				totals[t].detected++
			}
		}
		stats.AlarmFraction /= float64(len(trials))
		stats.DelaySec = metrics.MeanDelaySeconds(delays, dt)
		r.Missed += stats.Missed
		r.Targets[first.Name] = stats
	}
	if r.detected > 0 {
		r.MeanDelaySec = r.delaySum / float64(r.detected)
	}
	r.Intervals = intervals(sc.Name, totals)
	return r, totals
}

// RunSuite executes every scenario × trial of the suite and aggregates
// the leaderboard measurements. Results are bit-for-bit reproducible
// from {suite, config trials} and independent of Workers.
func RunSuite(s *Suite, cfg RunConfig) (*SuiteResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	trials := max(1, cfg.Trials)
	workers := max(1, cfg.Workers)

	// Workers drain the missions concurrently. Each mission owns its
	// simulator and detector, so the only shared state is the indexed
	// score and error slices: scenario si's trial t is at si*trials+t.
	scores := make([]trialScore, len(s.Scenarios)*trials)
	errs := make([]error, len(scores))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range scores {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			sc := &s.Scenarios[i/trials]
			compiled, err := sc.Compile(1000)
			var run *Run
			if err == nil {
				run, err = RunMission(sc.Robot, sc.World, compiled, s.Seed+int64(i%trials), sc.maxIterations(), DefaultDetector)
			}
			if errs[i] = err; err == nil {
				scores[i] = trialScore{len(run.Trace), run.SensorConfusion(), run.ActuatorConfusion(), run.Targets(), run.Dt}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := &SuiteResult{Suite: s.Name, Seed: s.Seed, Trials: trials, AvgDelaySec: -1}
	var delaySum float64
	detected := 0
	suiteTotals := make([]trialTotals, trials)
	for si := range s.Scenarios {
		r, totals := aggregate(&s.Scenarios[si], scores[si*trials:(si+1)*trials])
		for t := range totals {
			suiteTotals[t].add(totals[t])
		}
		out.SensorConfusion.Merge(r.SensorConfusion)
		out.ActuatorConfusion.Merge(r.ActuatorConfusion)
		delaySum += r.delaySum
		detected += r.detected
		out.Missed += r.Missed
		out.Results = append(out.Results, r)
	}
	if detected > 0 {
		out.AvgDelaySec = delaySum / float64(detected)
	}
	out.Intervals = intervals(s.Name, suiteTotals)
	return out, nil
}

// RunOne executes a single scenario with the given base seed and
// returns its aggregated Result — the entry point the §V-H evasive
// sweep drives.
func RunOne(sc Scenario, seed int64, cfg RunConfig) (*Result, error) {
	suite := &Suite{Version: Version, Name: "one", Seed: seed, Scenarios: []Scenario{sc}}
	res, err := RunSuite(suite, cfg)
	if err != nil {
		return nil, err
	}
	return &res.Results[0], nil
}

// Write renders the per-scenario leaderboard table. From two trials on,
// each rate and delay is followed by its bootstrap interval.
func (r *SuiteResult) Write(w io.Writer) {
	fmt.Fprintf(w, "suite %q  seed=%d  trials=%d\n", r.Suite, r.Seed, r.Trials)
	width := 8 // a rate's column; the delay's is one wider
	if r.Intervals != nil {
		fmt.Fprintf(w, "%.0f%% bootstrap intervals over trials in brackets\n", 100*stat.BootstrapLevel)
		width = 21
	}
	fmt.Fprintf(w, "%-34s %-13s %*s %*s %*s %*s %*s %6s\n", "name", "class",
		width, "sFPR%", width, "sFNR%", width, "aFPR%", width, "aFNR%", width+1, "delay(s)", "missed")
	for i := range r.Results {
		res := &r.Results[i]
		iv := res.Intervals.orZero()
		fmt.Fprintf(w, "%-34s %-13s %*s %*s %*s %*s %*s %6d\n", res.Name, res.Class,
			width, withBounds(100, res.SensorConfusion.FPR(), iv.SensorFPR),
			width, withBounds(100, res.SensorConfusion.FNR(), iv.SensorFNR),
			width, withBounds(100, res.ActuatorConfusion.FPR(), iv.ActuatorFPR),
			width, withBounds(100, res.ActuatorConfusion.FNR(), iv.ActuatorFNR),
			width+1, withBounds(1, res.MeanDelaySec, iv.DelaySec), res.Missed)
	}
	iv := r.Intervals.orZero()
	fmt.Fprintf(w, "aggregate: sensor FPR %.2f%%%s FNR %.2f%%%s, actuator FPR %.2f%%%s FNR %.2f%%%s, mean delay %.2fs%s, missed %d\n",
		100*r.SensorConfusion.FPR(), bounds(100, iv.SensorFPR),
		100*r.SensorConfusion.FNR(), bounds(100, iv.SensorFNR),
		100*r.ActuatorConfusion.FPR(), bounds(100, iv.ActuatorFPR),
		100*r.ActuatorConfusion.FNR(), bounds(100, iv.ActuatorFNR),
		r.AvgDelaySec, bounds(1, iv.DelaySec), r.Missed)
}

// orZero returns *iv, or no intervals when iv is nil.
func (iv *Intervals) orZero() Intervals {
	if iv == nil {
		return Intervals{}
	}
	return *iv
}

// withBounds formats scale·v to two decimals, then its bounds.
func withBounds(scale, v float64, iv *stat.Interval) string {
	return fmt.Sprintf("%.2f", scale*v) + bounds(scale, iv)
}

// bounds formats scale·iv as " [lo, hi]", or "" when iv is nil.
func bounds(scale float64, iv *stat.Interval) string {
	if iv == nil {
		return ""
	}
	return fmt.Sprintf(" [%.2f, %.2f]", scale*iv.Lo, scale*iv.Hi)
}
