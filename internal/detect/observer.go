package detect

import "roboads/internal/core"

// DecisionStats is one Decide call's instrumentation record. The struct
// is owned by the Decider and reused across iterations; its slices are
// the Decision's own (borrowed). Observers must read synchronously and
// copy anything they retain.
type DecisionStats struct {
	// Iteration is the control iteration index.
	Iteration int
	// Mode is the selected mode's name.
	Mode string
	// Condition is the confirmed condition rendered as a string (e.g.
	// "S{ips}/A1"); ConditionChanged reports that it differs from the
	// previous iteration's.
	Condition        string
	ConditionChanged bool
	// SensorStat/SensorThreshold and the raw/confirmed flags mirror the
	// aggregate sensor test of the Decision.
	SensorStat, SensorThreshold float64
	SensorRaw, SensorAlarm      bool
	// ActuatorStat/ActuatorThreshold and flags mirror the actuator test.
	// ActuatorHeld reports the window was held (anomaly unobservable this
	// iteration), in which case ActuatorStat is meaningless.
	ActuatorStat, ActuatorThreshold float64
	ActuatorRaw, ActuatorAlarm      bool
	ActuatorHeld                    bool
	// SensorWindowFill and ActuatorWindowFill are the c-of-w window fill
	// levels in [0,1] (pushed outcomes / window size).
	SensorWindowFill, ActuatorWindowFill float64
	// PerSensor holds the testing sensors' identification statistics:
	// PerSensor[j] is SensorAnomalies[j].Sensor's (the Decision's
	// PerSensorStats and SensorAnomalies; borrowed — do not retain).
	PerSensor       []float64
	SensorAnomalies []core.SensorAnomaly
}

// Observer receives decision-maker instrumentation events. Decision is
// called synchronously at the end of every Decide, after the sliding
// windows were pushed. Implementations must not block and must not
// mutate the record: observation is strictly read-only and cannot
// change detection output. A nil Observer in Config disables the hook
// at the cost of one nil check per Decide.
type Observer interface {
	Decision(*DecisionStats)
}
