package telemetry

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"

	"roboads/internal/core"
	"roboads/internal/detect"
)

// Metric names exported by a Telemetry instance. DESIGN.md §9 carries
// the full inventory with semantics.
const (
	MetricStepSeconds      = "roboads_engine_step_seconds"
	MetricFrameGapSeconds  = "roboads_trace_frame_gap_seconds"
	MetricStepsTotal       = "roboads_engine_steps_total"
	MetricModeSwitches     = "roboads_engine_mode_switches_total"
	MetricFloorHits        = "roboads_engine_weight_floor_hits_total"
	MetricModeFailures     = "roboads_engine_mode_failures_total"
	MetricJacobiFallbacks  = "roboads_nuise_jacobi_fallbacks_total"
	MetricDroppedReadings  = "roboads_engine_dropped_readings_total" // + {sensor="..."}
	MetricDecisionsTotal   = "roboads_decider_decisions_total"
	MetricConditionChanges = "roboads_decider_condition_changes_total"
	MetricAlarmEdges       = "roboads_decider_alarm_transitions_total" // + {kind,to}
	MetricTopWeight        = "roboads_engine_top_weight"
	MetricSecondWeight     = "roboads_engine_second_weight"
	MetricSensorStat       = "roboads_decider_sensor_stat"
	MetricActuatorStat     = "roboads_decider_actuator_stat"
	MetricSensorWindow     = "roboads_decider_sensor_window_fill"
	MetricActuatorWindow   = "roboads_decider_actuator_window_fill"
)

// Options configures a Telemetry instance.
type Options struct {
	// Logger receives the structured event stream. Nil disables event
	// logging entirely (metrics still accumulate).
	Logger *slog.Logger
	// SampleEvery maps a log level to a sampling period: a record at
	// that level is emitted once per N occurrences. Levels absent from
	// the map (or mapped to values < 2) are emitted unsampled. The
	// compact per-Step record logs at Debug, so a typical production
	// setting samples Debug (e.g. every 100th step) and leaves Info —
	// mode switches, alarm edges — unsampled.
	SampleEvery map[slog.Level]int
}

// Counts is the counting half of Telemetry: the engine and decision
// series (steps, step seconds, mode switches, floor hits, mode failures,
// Jacobi fallbacks, dropped readings, decisions, condition changes and
// alarm edges) as a core.Observer and detect.Observer. It takes no lock
// on the step path and keeps no per-detector state, so one Counts can
// observe every detector of a fleet.
type Counts struct {
	reg *Registry

	stepSeconds *Histogram

	steps, switches, floorHits, modeFailures, jacobiFallbacks *Counter
	decisions, conditionChanges                               *Counter
	// alarmEdges[kind][on]: kind 0 sensor, 1 actuator; on is the
	// alarm's state after the edge.
	alarmEdges [2]map[bool]*Counter
	// dropped caches each sensor's dropped-reading counter (sensor name
	// → *Counter); its reads take no lock once the counter exists.
	dropped sync.Map
}

// NewCounts registers the counting series on reg, or finds them there,
// so a Counts shares them with a Telemetry on the same registry.
func NewCounts(reg *Registry) *Counts {
	c := &Counts{reg: reg}
	c.stepSeconds = reg.Histogram(MetricStepSeconds, "Engine.Step wall time in seconds.", LatencyBuckets())
	c.steps = reg.Counter(MetricStepsTotal, "Engine control iterations completed.")
	c.switches = reg.Counter(MetricModeSwitches, "Selected-mode changes between consecutive iterations.")
	c.floorHits = reg.Counter(MetricFloorHits, "Mode weights pinned at the epsilon floor.")
	c.modeFailures = reg.Counter(MetricModeFailures, "Modes that produced no result in an iteration.")
	c.jacobiFallbacks = reg.Counter(MetricJacobiFallbacks, "NUISE steps that took the Jacobi pseudo-inverse fallback; nonzero on a clean run is a perf regression.")
	c.decisions = reg.Counter(MetricDecisionsTotal, "Decision-maker iterations completed.")
	c.conditionChanges = reg.Counter(MetricConditionChanges, "Confirmed-condition transitions.")
	for kind, k := range []string{"sensor", "actuator"} {
		c.alarmEdges[kind] = make(map[bool]*Counter, 2)
		for on, o := range map[bool]string{false: "off", true: "on"} {
			c.alarmEdges[kind][on] = reg.Counter(MetricAlarmEdges+`{kind="`+k+`",to="`+o+`"}`,
				"Confirmed alarm state transitions by kind and direction.")
		}
	}
	return c
}

// EngineStep implements core.Observer.
func (c *Counts) EngineStep(s *core.StepStats) {
	c.steps.Inc()
	c.stepSeconds.Observe(float64(s.WallNanos) * 1e-9)
	if s.Switched {
		c.switches.Inc()
	}
	if s.FloorHits > 0 {
		c.floorHits.Add(int64(s.FloorHits))
	}
	if s.ModesFailed > 0 {
		c.modeFailures.Add(int64(s.ModesFailed))
	}
	if s.JacobiFallbacks > 0 {
		c.jacobiFallbacks.Add(s.JacobiFallbacks)
	}
}

// DroppedReading implements core.Observer.
func (c *Counts) DroppedReading(sensor string) {
	counter, ok := c.dropped.Load(sensor)
	if !ok {
		counter, _ = c.dropped.LoadOrStore(sensor, c.reg.Counter(MetricDroppedReadings+`{sensor="`+sensor+`"}`,
			"Iterations a sensing workflow's reading was missing from the input map."))
	}
	counter.(*Counter).Inc()
}

// Decision implements detect.Observer.
func (c *Counts) Decision(s *detect.DecisionStats) {
	c.decisions.Inc()
	if s.ConditionChanged {
		c.conditionChanges.Inc()
	}
	if s.SensorEdge {
		c.alarmEdges[0][s.SensorAlarm].Inc()
	}
	if s.ActuatorEdge {
		c.alarmEdges[1][s.ActuatorAlarm].Inc()
	}
}

// Telemetry is the runtime observability hub for one detector: it
// implements both core.Observer and detect.Observer, hands the counting
// series to its Counts, keeps the gauges and the state the /snapshot
// endpoint serves, and emits structured events. All observer methods are
// safe for concurrent use.
type Telemetry struct {
	reg    *Registry
	log    *slog.Logger
	counts *Counts

	// sampleEvery / sampleN implement per-level log sampling. The four
	// slots cover slog's standard levels (Debug, Info, Warn, Error).
	sampleEvery [4]int
	sampleN     [4]atomic.Int64

	frameGapSeconds *Histogram

	topWeight      *Gauge
	secondWeight   *Gauge
	sensorStat     *Gauge
	actuatorStat   *Gauge
	sensorWindow   *Gauge
	actuatorWindow *Gauge

	// snapMu guards the /snapshot state. Weights are copied into a
	// reused buffer so steady-state snapshot upkeep does not allocate.
	snapMu sync.Mutex
	snap   snapshotState
}

// snapshotState is the mutable last-seen detector state behind
// /snapshot.
type snapshotState struct {
	iteration     int
	selected      int
	selectedName  string
	weights       []float64
	pValue        float64
	likelihood    float64
	lastDecision  DecisionSnapshot
	haveDecision  bool
	perSensorStat map[string]float64
}

// New returns a Telemetry instance with a fresh registry.
func New(opts Options) *Telemetry {
	reg := NewRegistry()
	t := &Telemetry{reg: reg, log: opts.Logger, counts: NewCounts(reg)}
	for level, every := range opts.SampleEvery {
		if i := levelSlot(level); i >= 0 {
			t.sampleEvery[i] = every
		}
	}

	t.frameGapSeconds = reg.Histogram(MetricFrameGapSeconds, "Inter-frame gap of a replayed trace in seconds.", LatencyBuckets())
	t.topWeight = reg.Gauge(MetricTopWeight, "Normalized weight of the selected mode.")
	t.secondWeight = reg.Gauge(MetricSecondWeight, "Second-highest normalized mode weight.")
	t.sensorStat = reg.Gauge(MetricSensorStat, "Aggregate sensor chi-square statistic of the last decision.")
	t.actuatorStat = reg.Gauge(MetricActuatorStat, "Actuator chi-square statistic of the last decision.")
	t.sensorWindow = reg.Gauge(MetricSensorWindow, "Aggregate sensor c-of-w window fill level (0..1).")
	t.actuatorWindow = reg.Gauge(MetricActuatorWindow, "Actuator c-of-w window fill level (0..1).")
	return t
}

// Registry exposes the underlying metrics registry (for extra
// application metrics or direct reads in tests).
func (t *Telemetry) Registry() *Registry { return t.reg }

func levelSlot(l slog.Level) int {
	switch {
	case l < slog.LevelInfo:
		return 0
	case l < slog.LevelWarn:
		return 1
	case l < slog.LevelError:
		return 2
	default:
		return 3
	}
}

// sampled reports whether a record at the given level should be
// emitted under the per-level sampling policy.
func (t *Telemetry) sampled(level slog.Level) bool {
	if t.log == nil || !t.log.Enabled(context.Background(), level) {
		return false
	}
	i := levelSlot(level)
	every := t.sampleEvery[i]
	if every < 2 {
		return true
	}
	return t.sampleN[i].Add(1)%int64(every) == 1
}

// --- core.Observer ---------------------------------------------------------

// EngineStep implements core.Observer.
func (t *Telemetry) EngineStep(s *core.StepStats) {
	t.counts.EngineStep(s)
	top, second := topTwo(s.Weights)
	t.topWeight.Set(top)
	t.secondWeight.Set(second)

	t.snapMu.Lock()
	t.snap.iteration = s.Iteration
	t.snap.selected = s.Selected
	t.snap.selectedName = s.SelectedName
	if cap(t.snap.weights) < len(s.Weights) {
		t.snap.weights = make([]float64, len(s.Weights))
	}
	t.snap.weights = t.snap.weights[:len(s.Weights)]
	copy(t.snap.weights, s.Weights)
	t.snap.pValue = s.PValue
	t.snap.likelihood = s.Likelihood
	t.snapMu.Unlock()

	if s.Switched && t.sampled(slog.LevelInfo) {
		t.log.Info("mode switch",
			"k", s.Iteration, "mode", s.SelectedName, "selected", s.Selected,
			"top", top, "second", second, "pvalue", s.PValue)
	}
	if t.sampled(slog.LevelDebug) {
		t.log.Debug("step",
			"k", s.Iteration, "mode", s.SelectedName,
			"top", top, "second", second,
			"pvalue", s.PValue, "likelihood", s.Likelihood,
			"wall_ns", s.WallNanos, "floor_hits", s.FloorHits)
	}
}

// DroppedReading implements core.Observer.
func (t *Telemetry) DroppedReading(sensor string) {
	t.counts.DroppedReading(sensor)
	if t.sampled(slog.LevelWarn) {
		t.log.Warn("dropped reading", "sensor", sensor)
	}
}

// FrameGap records the inter-frame gap of a replayed trace, so offline
// replay reproduces the arrival-cadence histogram of the recorded
// mission (see trace.Frame.TNanos).
func (t *Telemetry) FrameGap(nanos int64) {
	if nanos < 0 {
		return
	}
	t.frameGapSeconds.Observe(float64(nanos) * 1e-9)
}

// --- detect.Observer -------------------------------------------------------

// Decision implements detect.Observer.
func (t *Telemetry) Decision(s *detect.DecisionStats) {
	t.counts.Decision(s)
	t.sensorStat.Set(s.SensorStat)
	if !s.ActuatorHeld {
		t.actuatorStat.Set(s.ActuatorStat)
	}
	t.sensorWindow.Set(s.SensorWindowFill)
	t.actuatorWindow.Set(s.ActuatorWindowFill)

	t.snapMu.Lock()
	t.snap.lastDecision = DecisionSnapshot{
		Iteration:          s.Iteration,
		Mode:               s.Mode,
		Condition:          s.Condition.String(),
		SensorStat:         s.SensorStat,
		SensorThreshold:    s.SensorThreshold,
		SensorAlarm:        s.SensorAlarm,
		ActuatorStat:       s.ActuatorStat,
		ActuatorThreshold:  s.ActuatorThreshold,
		ActuatorAlarm:      s.ActuatorAlarm,
		ActuatorHeld:       s.ActuatorHeld,
		SensorWindowFill:   s.SensorWindowFill,
		ActuatorWindowFill: s.ActuatorWindowFill,
	}
	t.snap.haveDecision = true
	if t.snap.perSensorStat == nil {
		t.snap.perSensorStat = make(map[string]float64, len(s.PerSensor))
	}
	clear(t.snap.perSensorStat)
	for j, v := range s.PerSensor {
		t.snap.perSensorStat[s.SensorAnomalies[j].Sensor] = v
	}
	t.snapMu.Unlock()

	if s.SensorEdge {
		t.logAlarmEdge("sensor", s)
	}
	if s.ActuatorEdge {
		t.logAlarmEdge("actuator", s)
	}
	if s.ConditionChanged && t.sampled(slog.LevelInfo) {
		t.log.Info("condition change",
			"k", s.Iteration, "condition", s.Condition.String(), "mode", s.Mode,
			"sensor_stat", s.SensorStat, "sensor_threshold", s.SensorThreshold,
			"actuator_stat", s.ActuatorStat, "actuator_threshold", s.ActuatorThreshold)
	}
}

func (t *Telemetry) logAlarmEdge(kind string, s *detect.DecisionStats) {
	if !t.sampled(slog.LevelInfo) {
		return
	}
	t.log.Info("alarm edge",
		"k", s.Iteration, "kind", kind, "condition", s.Condition.String(),
		"sensor_alarm", s.SensorAlarm, "actuator_alarm", s.ActuatorAlarm,
		"sensor_stat", s.SensorStat, "actuator_stat", s.ActuatorStat)
}

// topTwo returns the largest and second-largest entries of w.
func topTwo(w []float64) (top, second float64) {
	for _, v := range w {
		if v > top {
			top, second = v, top
		} else if v > second {
			second = v
		}
	}
	return top, second
}

// --- snapshot --------------------------------------------------------------

// DecisionSnapshot is the /snapshot view of the last decision.
type DecisionSnapshot struct {
	Iteration          int     `json:"iteration"`
	Mode               string  `json:"mode"`
	Condition          string  `json:"condition"`
	SensorStat         float64 `json:"sensorStat"`
	SensorThreshold    float64 `json:"sensorThreshold"`
	SensorAlarm        bool    `json:"sensorAlarm"`
	ActuatorStat       float64 `json:"actuatorStat"`
	ActuatorThreshold  float64 `json:"actuatorThreshold"`
	ActuatorAlarm      bool    `json:"actuatorAlarm"`
	ActuatorHeld       bool    `json:"actuatorHeld"`
	SensorWindowFill   float64 `json:"sensorWindowFill"`
	ActuatorWindowFill float64 `json:"actuatorWindowFill"`
}

// Snapshot is the /snapshot response: the detector's last-seen state
// plus a full metrics dump.
type Snapshot struct {
	Iteration    int                `json:"iteration"`
	Selected     int                `json:"selected"`
	SelectedMode string             `json:"selectedMode"`
	Weights      []float64          `json:"weights"`
	PValue       float64            `json:"pValue"`
	Likelihood   float64            `json:"likelihood"`
	PerSensor    map[string]float64 `json:"perSensorStats,omitempty"`
	LastDecision *DecisionSnapshot  `json:"lastDecision,omitempty"`
	Metrics      map[string]any     `json:"metrics"`
}

// Snapshot returns a copy of the current state, safe to marshal and
// retain.
func (t *Telemetry) Snapshot() Snapshot {
	t.snapMu.Lock()
	s := Snapshot{
		Iteration:    t.snap.iteration,
		Selected:     t.snap.selected,
		SelectedMode: t.snap.selectedName,
		Weights:      append([]float64(nil), t.snap.weights...),
		PValue:       t.snap.pValue,
		Likelihood:   t.snap.likelihood,
	}
	if len(t.snap.perSensorStat) > 0 {
		s.PerSensor = make(map[string]float64, len(t.snap.perSensorStat))
		for k, v := range t.snap.perSensorStat {
			s.PerSensor[k] = v
		}
	}
	if t.snap.haveDecision {
		d := t.snap.lastDecision
		s.LastDecision = &d
	}
	t.snapMu.Unlock()
	s.Metrics = t.reg.Snapshot()
	return s
}

// Interface conformance.
var (
	_ core.Observer   = (*Telemetry)(nil)
	_ detect.Observer = (*Telemetry)(nil)
)
