package detect

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"roboads/internal/core"
	"roboads/internal/mat"
	"roboads/internal/stat"
)

// Config holds the decision parameters profiled in §V-F: the chi-square
// confidence levels α and the sliding-window size w / criteria c for each
// misbehavior class.
type Config struct {
	// SensorAlpha is the confidence level for the aggregate and
	// per-sensor tests. Paper optimum: 0.005.
	SensorAlpha float64
	// SensorWindow and SensorCriteria are the c-of-w parameters for
	// sensor alarms. Paper optimum: 2 of 2.
	SensorWindow, SensorCriteria int
	// ActuatorAlpha is the confidence level for the actuator test.
	// Paper optimum: 0.05.
	ActuatorAlpha float64
	// ActuatorWindow and ActuatorCriteria are the c-of-w parameters for
	// actuator alarms. Paper optimum: 3 of 6.
	ActuatorWindow, ActuatorCriteria int
	// Observer receives per-Decide instrumentation (test statistics,
	// window fill levels, condition transitions). Nil disables the hook;
	// observation is read-only and cannot change detection output.
	Observer Observer
}

// DefaultConfig returns the parameters the paper selects in §V-F.
func DefaultConfig() Config {
	return Config{
		SensorAlpha:      0.005,
		SensorWindow:     2,
		SensorCriteria:   2,
		ActuatorAlpha:    0.05,
		ActuatorWindow:   6,
		ActuatorCriteria: 3,
	}
}

// Condition is a reported misbehavior condition: which sensing workflows
// are confirmed misbehaving, and whether the actuators are.
type Condition struct {
	// Sensors holds the confirmed misbehaving workflow names, sorted.
	Sensors []string
	// Actuator reports a confirmed actuator misbehavior.
	Actuator bool
}

// Clean reports whether the condition is S0/A0 (nothing confirmed).
func (c Condition) Clean() bool { return len(c.Sensors) == 0 && !c.Actuator }

// Equal reports whether two conditions are identical.
func (c Condition) Equal(o Condition) bool {
	if c.Actuator != o.Actuator || len(c.Sensors) != len(o.Sensors) {
		return false
	}
	for i := range c.Sensors {
		if c.Sensors[i] != o.Sensors[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer, e.g. "S{ips}/A1".
func (c Condition) String() string {
	a := "A0"
	if c.Actuator {
		a = "A1"
	}
	if len(c.Sensors) == 0 {
		return "S0/" + a
	}
	return "S{" + strings.Join(c.Sensors, ",") + "}/" + a
}

// Decision is one control iteration's decision-maker output.
type Decision struct {
	// Iteration is the control iteration index.
	Iteration int
	// Mode is the selected mode's name.
	Mode string
	// SensorStat and SensorThreshold are the aggregate sensor test
	// statistic d̂sᵀ·Ps⁻¹·d̂s and its chi-square threshold.
	SensorStat, SensorThreshold float64
	// SensorRaw is the raw (pre-window) aggregate sensor test outcome.
	SensorRaw bool
	// SensorAlarm is the window-confirmed sensor misbehavior alarm.
	SensorAlarm bool
	// ActuatorStat and ActuatorThreshold are the actuator test statistic
	// d̂aᵀ·Pa⁻¹·d̂a and its threshold.
	ActuatorStat, ActuatorThreshold float64
	// ActuatorRaw is the raw actuator test outcome.
	ActuatorRaw bool
	// ActuatorAlarm is the window-confirmed actuator misbehavior alarm.
	ActuatorAlarm bool
	// PerSensorStats holds each testing sensor's identification
	// statistic: PerSensorStats[j] is SensorAnomalies[j].Sensor's. It is
	// the engine Output's SensorStats, which the engine computed.
	PerSensorStats []float64
	// Condition is the confirmed misbehavior condition.
	Condition Condition
	// Da is the actuator anomaly estimate (per-actuator quantification,
	// Algorithm 1 lines 22–24): the selected Result's Da, which, like
	// every vector of an engine Output, no later Step writes.
	Da mat.Vec
	// SensorAnomalies are the per-sensor anomaly estimates of the
	// selected mode.
	SensorAnomalies []core.SensorAnomaly
}

// Decider is the stateful decision maker: it holds the sliding windows
// and cached chi-square thresholds across control iterations.
type Decider struct {
	cfg            Config
	sensorWindow   *SlidingWindow
	actuatorWindow *SlidingWindow
	perSensor      map[string]*SlidingWindow
	thresholds     map[int]float64 // sensor-side quantiles by dof
	actThresholds  map[int]float64 // actuator-side quantiles by dof
	// quadBuf is the factor buffer of the aggregate χ² statistic (see
	// quad); the engine computes the per-sensor and actuator ones.
	quadBuf []float64

	// obs is Config.Observer; nil when instrumentation is off. stats is
	// the reused DecisionStats record handed to it, and prevCond the
	// previous iteration's condition for transition detection (tracked
	// only while an observer is attached).
	obs      Observer
	stats    DecisionStats
	prevCond Condition
	prevSet  bool
}

// NewDecider returns a decision maker with the given parameters.
func NewDecider(cfg Config) *Decider {
	return &Decider{
		cfg:            cfg,
		sensorWindow:   NewSlidingWindow(cfg.SensorWindow, cfg.SensorCriteria),
		actuatorWindow: NewSlidingWindow(cfg.ActuatorWindow, cfg.ActuatorCriteria),
		perSensor:      make(map[string]*SlidingWindow),
		thresholds:     make(map[int]float64),
		actThresholds:  make(map[int]float64),
		obs:            cfg.Observer,
	}
}

func (d *Decider) sensorThreshold(dof int) (float64, error) {
	return quantileOnce(d.thresholds, d.cfg.SensorAlpha, dof, "sensor")
}
func (d *Decider) actuatorThreshold(dof int) (float64, error) {
	return quantileOnce(d.actThresholds, d.cfg.ActuatorAlpha, dof, "actuator")
}

// quantileOnce returns the χ²_dof quantile at alpha from the decider's
// map, filling it from stat's process-wide table on a miss.
func quantileOnce(cache map[int]float64, alpha float64, dof int, side string) (float64, error) {
	t, ok := cache[dof]
	if !ok {
		var err error
		if t, err = stat.ChiSquareQuantileTable(alpha, dof); err != nil {
			return 0, fmt.Errorf("detect: %s threshold: %w", side, err)
		}
		cache[dof] = t
	}
	return t, nil
}

func (d *Decider) windowFor(sensor string) *SlidingWindow {
	w, ok := d.perSensor[sensor]
	if !ok {
		w = NewSlidingWindow(d.cfg.SensorWindow, d.cfg.SensorCriteria)
		d.perSensor[sensor] = w
	}
	return w
}

// Decide runs Algorithm 1 lines 10–25 on one engine output.
func (d *Decider) Decide(out *core.Output) (*Decision, error) {
	dec := new(Decision)
	if err := d.decide(dec, out); err != nil {
		return nil, err
	}
	return dec, nil
}

// decide is Decide into the caller's fresh dec.
func (d *Decider) decide(dec *Decision, out *core.Output) error {
	*dec = Decision{
		Iteration:       out.Iteration,
		Mode:            out.SelectedMode.Name,
		PerSensorStats:  out.SensorStats,
		Da:              out.Result.Da,
		SensorAnomalies: out.SensorAnomalies,
	}

	// The confirmed alarms before this decision, for the observer's
	// edges.
	wasSensor, wasActuator := d.sensorWindow.Met(), d.actuatorWindow.Met()

	// Aggregate sensor test (line 10).
	if ds := out.Result.Ds; ds != nil && ds.Len() > 0 {
		quad := d.quad(out.Result.Ps, ds)
		dec.SensorStat = quad
		threshold, err := d.sensorThreshold(ds.Len())
		if err != nil {
			return err
		}
		dec.SensorThreshold = threshold
		dec.SensorRaw = quad > threshold
	}
	dec.SensorAlarm = d.sensorWindow.Push(dec.SensorRaw)

	// Actuator test (line 11). Skipped when the actuator anomaly was
	// unobservable this iteration (NUISE degraded to a plain EKF step) —
	// and crucially the c-of-w window is *held*, not fed a negative: an
	// uninformative iteration says nothing about the actuator, and
	// pushing false would let a brief standstill dilute the window and
	// mask an ongoing attack. ActuatorAlarm keeps reflecting the last
	// confirmed state until observability returns.
	actuatorHeld := true
	if da := out.Result.Da; da.Len() > 0 && out.Result.DaValid {
		actuatorHeld = false
		quad := out.ActuatorStat
		dec.ActuatorStat = quad
		threshold, err := d.actuatorThreshold(da.Len())
		if err != nil {
			return err
		}
		dec.ActuatorThreshold = threshold
		dec.ActuatorRaw = quad > threshold
		dec.ActuatorAlarm = d.actuatorWindow.Push(dec.ActuatorRaw)
	} else {
		dec.ActuatorAlarm = d.actuatorWindow.Met()
	}
	dec.Condition.Actuator = dec.ActuatorAlarm

	// Per-sensor identification (lines 13–18). Every testing sensor's
	// statistic feeds its own c-of-w window; the reference sensors of the
	// selected mode are hypothesized clean and push a negative.
	for j, sa := range out.SensorAnomalies {
		quad := out.SensorStats[j]
		threshold, err := d.sensorThreshold(sa.Ds.Len())
		if err != nil {
			return err
		}
		confirmed := d.windowFor(sa.Sensor).Push(quad > threshold)
		if dec.SensorAlarm && confirmed {
			dec.Condition.Sensors = append(dec.Condition.Sensors, sa.Sensor)
		}
	}
	for _, name := range out.SelectedMode.ReferenceNames {
		if !tested(out.SensorAnomalies, name) {
			d.windowFor(name).Push(false)
		}
	}
	sort.Strings(dec.Condition.Sensors)

	if d.obs != nil {
		changed := !d.prevSet || !dec.Condition.Equal(d.prevCond)
		d.prevCond, d.prevSet = dec.Condition, true
		d.stats = DecisionStats{
			Iteration:          dec.Iteration,
			Mode:               dec.Mode,
			Condition:          dec.Condition,
			ConditionChanged:   changed,
			SensorStat:         dec.SensorStat,
			SensorThreshold:    dec.SensorThreshold,
			SensorRaw:          dec.SensorRaw,
			SensorAlarm:        dec.SensorAlarm,
			ActuatorStat:       dec.ActuatorStat,
			ActuatorThreshold:  dec.ActuatorThreshold,
			ActuatorRaw:        dec.ActuatorRaw,
			ActuatorAlarm:      dec.ActuatorAlarm,
			ActuatorHeld:       actuatorHeld,
			SensorEdge:         dec.SensorAlarm != wasSensor,
			ActuatorEdge:       dec.ActuatorAlarm != wasActuator,
			SensorWindowFill:   d.sensorWindow.Fill(),
			ActuatorWindowFill: d.actuatorWindow.Fill(),
			PerSensor:          dec.PerSensorStats,
			SensorAnomalies:    out.SensorAnomalies,
		}
		d.obs.Decision(&d.stats)
	}
	return nil
}

// quad returns the χ² statistic vᵀ·cov⁻¹·v, or 0 when cov is singular:
// a singular covariance is treated as non-informative rather than
// alarming.
func (d *Decider) quad(cov *mat.Mat, v mat.Vec) float64 {
	if n := v.Len(); len(d.quadBuf) < n*(n+1) {
		d.quadBuf = make([]float64, n*(n+1))
	}
	quad, err := mat.SPDInvQuadForm(cov, v, d.quadBuf)
	if err != nil {
		return 0
	}
	return quad
}

// tested reports whether sensor has an entry in the anomaly split (at
// most a few, so a scan beats a map).
func tested(split []core.SensorAnomaly, sensor string) bool {
	for _, sa := range split {
		if sa.Sensor == sensor {
			return true
		}
	}
	return false
}

// Reset clears all sliding-window state.
func (d *Decider) Reset() {
	d.sensorWindow.Reset()
	d.actuatorWindow.Reset()
	for _, w := range d.perSensor {
		w.Reset()
	}
}

// Detector is the full RoboADS pipeline of Fig. 3: monitor inputs feed
// the multi-mode engine, the mode selector picks the hypothesis, and the
// decision maker confirms and identifies misbehaviors.
type Detector struct {
	engine  *core.Engine
	decider *Decider
}

// NewDetector wires an engine and a decision configuration together.
func NewDetector(engine *core.Engine, cfg Config) *Detector {
	return &Detector{engine: engine, decider: NewDecider(cfg)}
}

// Report is one control iteration's full detector output.
type Report struct {
	// Engine is the multi-mode estimation result.
	Engine *core.Output
	// Decision is the decision maker result.
	Decision *Decision
}

// Step processes one control iteration: the planned command u_{k-1} and
// the latest readings z_k (Algorithm 1 lines 2–3). It is StepContext
// under context.Background() and shares its bit-for-bit output contract.
func (d *Detector) Step(u mat.Vec, readings map[string]mat.Vec) (*Report, error) {
	return d.StepContext(context.Background(), u, readings)
}

// StepContext is Step with cancellation: when ctx is cancelled the
// iteration is abandoned and ctx.Err() returned. The abort is
// all-or-nothing — neither the engine's mode bank nor the decision
// windows advance, so the pipeline resumes bit-for-bit on the next call
// (see core.Engine.StepContext). The decision layer runs after the
// engine gather and is not itself interruptible; cancellation latency is
// bounded by one mode-bank fan-out.
func (d *Detector) StepContext(ctx context.Context, u mat.Vec, readings map[string]mat.Vec) (*Report, error) {
	out, err := d.engine.StepContext(ctx, u, readings)
	if err != nil {
		return nil, err
	}
	// The Report and its Decision are the caller's, in one allocation.
	block := new(struct {
		rep Report
		dec Decision
	})
	if err := d.decider.decide(&block.dec, out); err != nil {
		return nil, err
	}
	block.rep = Report{Engine: out, Decision: &block.dec}
	return &block.rep, nil
}

// State exposes the engine's fused state estimate.
func (d *Detector) State() (mat.Vec, *mat.Mat) { return d.engine.State() }

// Close is a no-op, like Engine.Close; it completes the fleet's Stepper
// interface.
func (d *Detector) Close() {}
