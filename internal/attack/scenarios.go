package attack

import (
	"fmt"
	"sort"

	"roboads/internal/mat"
)

// SpeedUnit converts Khepera "speed units" to m/s. The paper's §V-H
// calibrates it: 900 units = 0.006 m/s.
const SpeedUnit = 0.006 / 900

// TickMeters is the wheel travel per encoder tick, from the Khepera III
// encoder resolution (≈2764 ticks per 41 mm-diameter wheel revolution).
// 100 injected ticks (scenario #5) corrupt the left-wheel travel by
// ≈4.7 mm.
const TickMeters = 4.7e-5

// Truth is the ground-truth misbehavior condition at one control
// iteration, used for TP/FP/FN/TN accounting (§V, Metrics).
type Truth struct {
	// CorruptedSensors holds the names of sensing workflows with an
	// active attack.
	CorruptedSensors map[string]bool
	// ActuatorCorrupted reports whether any actuation workflow attack is
	// active.
	ActuatorCorrupted bool
}

// Scenario is one attack/failure experiment: a set of timed sensor and
// actuator corruptions on a mission, matching one row of Table II.
type Scenario struct {
	// ID is the Table II row number (1–11); extensions use higher IDs.
	ID int
	// Name is the Table II scenario name.
	Name string
	// Description summarizes what is corrupted and how (Table II
	// "Description"/"Detail" columns).
	Description string
	// Sensor attacks active during the mission.
	SensorAttacks []SensorAttack
	// Actuator attacks active during the mission.
	ActuatorAttacks []ActuatorAttack
}

// TruthAt returns the ground-truth condition at iteration k.
func (s *Scenario) TruthAt(k int) Truth {
	truth := Truth{CorruptedSensors: make(map[string]bool)}
	for _, a := range s.SensorAttacks {
		if a.Active(k) {
			truth.CorruptedSensors[a.Target()] = true
		}
	}
	for _, a := range s.ActuatorAttacks {
		if a.Active(k) {
			truth.ActuatorCorrupted = true
		}
	}
	return truth
}

// Clean reports whether no attack is ever active (the all-negative
// baseline scenario).
func (s *Scenario) Clean() bool {
	return len(s.SensorAttacks) == 0 && len(s.ActuatorAttacks) == 0
}

// OnsetIterations returns the sorted distinct iterations at which some
// attack becomes active — the reference points for detection delay.
func (s *Scenario) OnsetIterations() []int {
	set := make(map[int]bool)
	for _, a := range s.SensorAttacks {
		set[windowStart(a)] = true
	}
	for _, a := range s.ActuatorAttacks {
		set[windowStart(a)] = true
	}
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func windowStart(a interface{ Active(int) bool }) int {
	// Attacks activate at their window start; scan forward from 0. All
	// scenario windows start within the first few hundred iterations.
	for k := 0; k < 1<<20; k++ {
		if a.Active(k) {
			return k
		}
	}
	return -1
}

// String implements fmt.Stringer.
func (s *Scenario) String() string {
	return fmt.Sprintf("#%d %s", s.ID, s.Name)
}

// Khepera scenario timing (10 Hz control loop): attacks trigger a few
// seconds into the mission, sequential scenarios stagger onsets, and
// scenario #10's LiDAR DoS ends mid-mission to exercise mode recovery.
const (
	onsetA = 60  // 6 s
	onsetB = 120 // 12 s
	endB   = 200 // 20 s
)

// CleanScenario returns the no-attack mission used for false-positive
// profiling.
func CleanScenario() Scenario {
	return Scenario{ID: 0, Name: "clean", Description: "no attacks or failures"}
}

// KheperaScenarios returns the 11 attack/failure scenarios of Table II,
// with magnitudes taken from the paper's Detail column (speed units and
// encoder ticks converted via SpeedUnit and TickMeters).
func KheperaScenarios() []Scenario {
	return []Scenario{
		{
			ID:          1,
			Name:        "Wheel controller logic bomb",
			Description: "logic bomb in actuator utility lib alters planned control commands: -6000 speed units on vL, +6000 on vR (actuator/cyber)",
			ActuatorAttacks: []ActuatorAttack{
				&ActuatorBias{
					Offset: mat.VecOf(-6000*SpeedUnit, +6000*SpeedUnit),
					Env:    Envelope{Win: Window{Start: onsetA}},
					Via:    Cyber,
				},
			},
		},
		{
			ID:          2,
			Name:        "Wheel jamming",
			Description: "left wheel is physically jammed: 0 speed units on vL (actuator/physical)",
			ActuatorAttacks: []ActuatorAttack{
				&ActuatorOverride{Index: 0, Value: 0, Win: Window{Start: onsetA}, Via: Physical},
			},
		},
		{
			ID:          3,
			Name:        "IPS logic bomb",
			Description: "logic bomb in IPS data processing lib shifts +0.07 m on X axis (sensor/cyber)",
			SensorAttacks: []SensorAttack{
				&Bias{Sensor: "ips", Offset: mat.VecOf(0.07, 0, 0), Env: Envelope{Win: Window{Start: onsetA}}, Via: Cyber},
			},
		},
		{
			ID:          4,
			Name:        "IPS spoofing",
			Description: "fake IPS signal overpowers authentic source: shift -0.1 m on X axis (sensor/physical)",
			SensorAttacks: []SensorAttack{
				&Bias{Sensor: "ips", Offset: mat.VecOf(-0.1, 0, 0), Env: Envelope{Win: Window{Start: onsetA}}, Via: Physical},
			},
		},
		{
			ID:          5,
			Name:        "Wheel encoder logic bomb",
			Description: "logic bomb in wheel encoder data processing lib: increment 100 steps on left wheel encoder (sensor/cyber)",
			SensorAttacks: []SensorAttack{
				&EncoderTicks{Wheel: 0, Ticks: 100, Win: Window{Start: onsetA}, Via: Cyber},
			},
		},
		{
			ID:          6,
			Name:        "LiDAR DoS",
			Description: "LiDAR sensor wire cut: received distance reading is 0 m in each direction (sensor/physical)",
			SensorAttacks: []SensorAttack{
				&Zero{Sensor: "lidar", Win: Window{Start: onsetA}, Via: Physical},
			},
		},
		{
			ID:          7,
			Name:        "LiDAR sensor blocking",
			Description: "laser ejection/reception blocked: distance reading to the left wall incorrect (sensor/physical)",
			SensorAttacks: []SensorAttack{
				&Override{Sensor: "lidar", Index: 0, Value: 0.05, Win: Window{Start: onsetA}, Via: Physical},
			},
		},
		{
			ID:          8,
			Name:        "Wheel controller & IPS logic bomb",
			Description: "∓6000 units on vL/vR and +0.07 m shift on IPS X axis (sensor&actuator/cyber)",
			SensorAttacks: []SensorAttack{
				&Bias{Sensor: "ips", Offset: mat.VecOf(0.07, 0, 0), Env: Envelope{Win: Window{Start: onsetA}}, Via: Cyber},
			},
			ActuatorAttacks: []ActuatorAttack{
				&ActuatorBias{
					Offset: mat.VecOf(-6000*SpeedUnit, +6000*SpeedUnit),
					Env:    Envelope{Win: Window{Start: onsetB}},
					Via:    Cyber,
				},
			},
		},
		{
			ID:          9,
			Name:        "LiDAR DoS & wheel encoder logic bomb",
			Description: "increment 100 steps on left wheel encoder, then 0 m LiDAR readings (sensor/cyber&physical)",
			SensorAttacks: []SensorAttack{
				&EncoderTicks{Wheel: 0, Ticks: 100, Win: Window{Start: onsetA}, Via: Cyber},
				&Zero{Sensor: "lidar", Win: Window{Start: onsetB}, Via: Physical},
			},
		},
		{
			ID:          10,
			Name:        "IPS spoofing & LiDAR DoS",
			Description: "0 m LiDAR readings, then +0.07 m IPS shift; LiDAR returns to normal mid-mission (sensor/physical)",
			SensorAttacks: []SensorAttack{
				&Zero{Sensor: "lidar", Win: Window{Start: onsetA, End: endB}, Via: Physical},
				&Bias{Sensor: "ips", Offset: mat.VecOf(0.07, 0, 0), Env: Envelope{Win: Window{Start: onsetB}}, Via: Physical},
			},
		},
		{
			ID:          11,
			Name:        "IPS & wheel encoder logic bomb",
			Description: "increment 100 steps on left wheel encoder, then +0.1 m IPS shift on X axis (sensor/cyber)",
			SensorAttacks: []SensorAttack{
				&EncoderTicks{Wheel: 0, Ticks: 100, Win: Window{Start: onsetA}, Via: Cyber},
				&Bias{Sensor: "ips", Offset: mat.VecOf(0.1, 0, 0), Env: Envelope{Win: Window{Start: onsetB}}, Via: Cyber},
			},
		},
	}
}

// TireBlowoutScenario returns the Table I tire-blowout failure as an
// extension scenario: the right tire loses half its effective speed to
// friction (actuator/physical) mid-mission.
func TireBlowoutScenario() Scenario {
	return Scenario{
		ID:          12,
		Name:        "Tire blowout",
		Description: "tire blows out and brings enormous tire friction: right wheel speed halved (actuator/physical)",
		ActuatorAttacks: []ActuatorAttack{
			&ActuatorScale{Index: 1, Factor: 0.5, Win: Window{Start: onsetA}, Via: Physical},
		},
	}
}

// TamiyaScenarios returns the §V-D suite: "similar attacks and failures"
// launched on the RC car's sensors (LiDAR, IPS, IMU) and actuators
// (steering/throttle).
func TamiyaScenarios() []Scenario {
	return []Scenario{
		{
			ID:          101,
			Name:        "Throttle logic bomb",
			Description: "logic bomb biases commanded acceleration by +0.6 m/s² (actuator/cyber)",
			ActuatorAttacks: []ActuatorAttack{
				&ActuatorBias{Offset: mat.VecOf(0.6, 0), Env: Envelope{Win: Window{Start: onsetA}}, Via: Cyber},
			},
		},
		{
			ID:          102,
			Name:        "Steering takeover",
			Description: "injected packets bias the steering angle by +0.2 rad (actuator/cyber)",
			ActuatorAttacks: []ActuatorAttack{
				&ActuatorBias{Offset: mat.VecOf(0, 0.2), Env: Envelope{Win: Window{Start: onsetA}}, Via: Cyber},
			},
		},
		{
			ID:          103,
			Name:        "IPS spoofing",
			Description: "fake IPS signal shifts -0.1 m on X axis (sensor/physical)",
			SensorAttacks: []SensorAttack{
				&Bias{Sensor: "ips", Offset: mat.VecOf(-0.1, 0, 0), Env: Envelope{Win: Window{Start: onsetA}}, Via: Physical},
			},
		},
		{
			ID:          104,
			Name:        "LiDAR DoS",
			Description: "LiDAR wire cut: 0 m readings in each direction (sensor/physical)",
			SensorAttacks: []SensorAttack{
				&Zero{Sensor: "lidar", Win: Window{Start: onsetA}, Via: Physical},
			},
		},
		{
			ID:          105,
			Name:        "IMU bias",
			Description: "resonant-sound injection biases the IMU heading by +0.15 rad (sensor/physical)",
			SensorAttacks: []SensorAttack{
				&Bias{Sensor: "imu", Offset: mat.VecOf(0.15, 0), Env: Envelope{Win: Window{Start: onsetA}}, Via: Physical},
			},
		},
	}
}
