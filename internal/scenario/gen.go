package scenario

import (
	"fmt"

	"roboads/internal/attack"
	"roboads/internal/detect"
	"roboads/internal/stat"
)

// Default returns the canonical coverage suite: the clean baseline, all
// eleven Table II scenarios plus the tire blowout, the Tamiya §V-D
// suite (lifted through FromScenario so magnitudes stay in lockstep with
// internal/attack), and the new adversary classes of ROADMAP item 4 —
// stealthy sub-threshold shaping, coordinated multi-sensor + actuator
// campaigns, intermittent and slow-ramp injections, and environment
// anomalies (occlusion, wheel slip, including one in the warehouse
// arena).
func Default(seed int64) (*Suite, error) {
	s := &Suite{Version: Version, Name: "default", Seed: seed}
	add := func(sc Scenario, err error) error {
		if err != nil {
			return err
		}
		s.Scenarios = append(s.Scenarios, sc)
		return nil
	}
	// Leaderboard names prefix the canonical scenario ID: Table II rows
	// collide across platforms ("IPS spoofing" is both #4 and #103).
	lift := func(k attack.Scenario, robot, class string) (Scenario, error) {
		sc, err := FromScenario(k, robot, class)
		sc.Name = fmt.Sprintf("%s-%02d %s", class, k.ID, k.Name)
		return sc, err
	}
	if err := add(FromScenario(attack.CleanScenario(), "khepera", "clean")); err != nil {
		return nil, err
	}
	for _, k := range attack.KheperaScenarios() {
		if err := add(lift(k, "khepera", "table2")); err != nil {
			return nil, err
		}
	}
	if err := add(lift(attack.TireBlowoutScenario(), "khepera", "table2")); err != nil {
		return nil, err
	}
	for _, t := range attack.TamiyaScenarios() {
		if err := add(lift(t, "tamiya", "tamiya")); err != nil {
			return nil, err
		}
	}
	s.Scenarios = append(s.Scenarios, adversaries()...)
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: default suite invalid: %w", err)
	}
	return s, nil
}

// adversaries returns the hand-designed hard cases beyond Table II.
func adversaries() []Scenario {
	return []Scenario{
		{
			// Guo et al. 1708.01834: an IPS shift held just under the
			// §V-H stealth envelope (≈0.02 m), ramped in over 5 s so the
			// transient never spikes the test statistic. Expected to stay
			// undetected — the leaderboard pins the miss as the
			// achievable-stealth watermark.
			Name: "stealthy-ips-subthreshold", Class: "stealthy", Robot: "khepera",
			Attacks: []Attack{{
				Kind: "bias", Sensor: detect.SensorIPS, Offset: []float64{0.012, 0, 0},
				Via: "physical", Envelope: Envelope{Start: 60, Ramp: 50},
			}},
		},
		{
			// The actuator-side §V-H stealth attacker: a wheel bias under
			// the ≈900-unit envelope, ramped over 8 s.
			Name: "stealthy-actuator-subthreshold", Class: "stealthy", Robot: "khepera",
			Attacks: []Attack{{
				Kind:   "actuator-bias",
				Offset: []float64{-600 * attack.SpeedUnit, 600 * attack.SpeedUnit},
				Via:    "cyber", Envelope: Envelope{Start: 60, Ramp: 80},
			}},
		},
		{
			// A coordinated campaign staggering three workflows: encoder
			// ticks at 6 s, an IPS shift at 12 s, then a wheel-controller
			// bias at 18 s — the hardest identification case, since the
			// detector must re-attribute as each corruption lands.
			Name: "coordinated-campaign", Class: "coordinated", Robot: "khepera",
			Attacks: []Attack{
				{Kind: "encoder-ticks", Wheel: 0, Ticks: 100, Via: "cyber",
					Envelope: Envelope{Start: 60}},
				{Kind: "bias", Sensor: detect.SensorIPS, Offset: []float64{0.07, 0, 0},
					Via: "cyber", Envelope: Envelope{Start: 120}},
				{Kind: "actuator-bias",
					Offset: []float64{-6000 * attack.SpeedUnit, 6000 * attack.SpeedUnit},
					Via:    "cyber", Envelope: Envelope{Start: 180}},
			},
		},
		{
			// An intermittent IPS spoof pulsing 2 s on / 2 s off, aimed at
			// the decision layer's sliding window: each off-phase drains
			// the alarm criteria before the next pulse.
			Name: "intermittent-ips", Class: "intermittent", Robot: "khepera",
			Attacks: []Attack{{
				Kind: "bias", Sensor: detect.SensorIPS, Offset: []float64{0.07, 0, 0},
				Via: "physical", Envelope: Envelope{Start: 60, Period: 40, Duty: 0.5},
			}},
		},
		{
			// A slow ramp to a large shift (0.1 m over 20 s): stealth time
			// traded against eventual impact — the detector should fire
			// mid-ramp once the accumulated shift crosses its envelope.
			Name: "ramp-ips", Class: "ramp", Robot: "khepera",
			Attacks: []Attack{{
				Kind: "bias", Sensor: detect.SensorIPS, Offset: []float64{0.1, 0, 0},
				Via: "cyber", Envelope: Envelope{Start: 60, Ramp: 200},
			}},
		},
		{
			// Ji et al. 2204.01146 environment anomaly: an occluder 12 cm
			// in front of the forward and left LiDAR beams.
			Name: "occlusion-lidar", Class: "environment", Robot: "khepera",
			Attacks: []Attack{{
				Kind: "occlusion", Sensor: detect.SensorLidar, Distance: 0.12,
				Beams: []int{0, 1}, Via: "environment", Envelope: Envelope{Start: 60},
			}},
		},
		{
			// Wheel slip: the left wheel loses 45% of its commanded
			// surface speed, worsening over 4 s — an actuator misbehavior
			// with no adversary at all.
			Name: "wheel-slip-left", Class: "environment", Robot: "khepera",
			Attacks: []Attack{{
				Kind: "wheel-slip", Slip: 0.45, Wheels: []int{0},
				Via: "environment", Envelope: Envelope{Start: 60, Ramp: 40},
			}},
		},
		{
			// The same slip on the long warehouse mission: scenario × world
			// composition, and the only default-suite run off the lab map.
			Name: "wheel-slip-warehouse", Class: "environment", Robot: "khepera",
			World: "warehouse", Iterations: 1200,
			Attacks: []Attack{{
				Kind: "wheel-slip", Slip: 0.45, Wheels: []int{0},
				Via: "environment", Envelope: Envelope{Start: 200, Ramp: 40},
			}},
		},
	}
}

// Fuzz appends n deterministically drawn scenarios sweeping the DSL's
// parameter space — randomized kinds, magnitudes, onsets, ramps, and
// duty cycles on the Khepera platform. The draws derive from the suite
// seed, so {seed, n} fully determines the suite.
func Fuzz(s *Suite, n int) error {
	rng := stat.NewRNG(s.Seed).Fork("scenario-fuzz")
	for i := 0; i < n; i++ {
		sc := Scenario{
			Name:  fmt.Sprintf("fuzz-%03d", i),
			Class: "fuzz",
			Robot: "khepera",
		}
		attacks := 1 + rng.IntN(3)
		for j := 0; j < attacks; j++ {
			sc.Attacks = append(sc.Attacks, fuzzAttack(rng))
		}
		s.Scenarios = append(s.Scenarios, sc)
	}
	return s.Validate()
}

func fuzzAttack(rng *stat.RNG) Attack {
	env := Envelope{Start: 40 + rng.IntN(200)}
	if rng.Float64() < 0.3 {
		env.End = env.Start + 50 + rng.IntN(300)
	}
	shape := func() {
		switch rng.IntN(3) {
		case 1:
			env.Ramp = 20 + rng.IntN(180)
		case 2:
			env.Period = 10 + rng.IntN(80)
			env.Duty = 0.25 + 0.5*rng.Float64()
		}
	}
	switch rng.IntN(8) {
	case 0:
		shape()
		mag := 0.005 + 0.1*rng.Float64()
		if rng.Float64() < 0.5 {
			mag = -mag
		}
		axis := rng.IntN(2)
		off := []float64{0, 0, 0}
		off[axis] = mag
		return Attack{Kind: "bias", Sensor: detect.SensorIPS, Offset: off, Via: "physical", Envelope: env}
	case 1:
		rate := (0.0002 + 0.002*rng.Float64())
		return Attack{Kind: "ramp-bias", Sensor: detect.SensorIPS,
			Offset: []float64{rate, 0, 0}, Via: "cyber", Envelope: env}
	case 2:
		return Attack{Kind: "zero", Sensor: detect.SensorLidar, Via: "physical", Envelope: env}
	case 3:
		return Attack{Kind: "encoder-ticks", Wheel: rng.IntN(2), Ticks: float64(20 + rng.IntN(200)),
			PerIteration: rng.Float64() < 0.2, Via: "cyber", Envelope: env}
	case 4:
		shape()
		units := 300 + 5700*rng.Float64()
		return Attack{Kind: "actuator-bias",
			Offset: []float64{-units * attack.SpeedUnit, units * attack.SpeedUnit},
			Via:    "cyber", Envelope: env}
	case 5:
		return Attack{Kind: "actuator-scale", Index: rng.IntN(2), Factor: 0.2 + 0.7*rng.Float64(),
			Via: "physical", Envelope: env}
	case 6:
		if env.Ramp > 1 {
			env.Ramp = 0
		}
		return Attack{Kind: "occlusion", Sensor: detect.SensorLidar,
			Distance: 0.08 + 0.3*rng.Float64(), Beams: []int{rng.IntN(3)},
			Via: "environment", Envelope: env}
	default:
		shape()
		return Attack{Kind: "wheel-slip", Slip: 0.2 + 0.6*rng.Float64(), Wheels: []int{rng.IntN(2)},
			Via: "environment", Envelope: env}
	}
}
