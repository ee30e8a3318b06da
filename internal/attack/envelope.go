package attack

import (
	"fmt"

	"roboads/internal/mat"
)

// Envelope shapes an attack's magnitude over time on top of a plain
// activation window: a linear onset ramp (the §V-H adaptive attacker who
// approaches the chi-square threshold slowly, Guo et al. 1708.01834) and
// an intermittent duty cycle (an attacker who pulses the corruption to
// starve the decision layer's sliding window). Gain is 0 outside the
// window and in the off-phase of a duty cycle, ramps linearly to 1 over
// Ramp iterations from onset, and is exactly 1 once fully on — so an
// envelope with no ramp and no period is the plain activation window,
// bit for bit.
type Envelope struct {
	// Win is the activation window.
	Win Window
	// Ramp is the number of iterations over which the gain grows
	// linearly from onset to full magnitude; 0 or 1 means instant.
	Ramp int
	// Period, when > 1, cycles the attack: within each period the attack
	// is on for the first Duty fraction and off for the rest.
	Period int
	// Duty is the active fraction of each period, in (0, 1].
	Duty float64
}

// Gain returns the magnitude multiplier at iteration k: 0 when inactive,
// (0, 1] when ramping or pulsed on, exactly 1 at full magnitude.
func (e Envelope) Gain(k int) float64 {
	if !e.Win.Contains(k) {
		return 0
	}
	if e.Period > 1 {
		phase := (k - e.Win.Start) % e.Period
		if float64(phase) >= e.Duty*float64(e.Period) {
			return 0
		}
	}
	if e.Ramp > 1 {
		if g := float64(k-e.Win.Start+1) / float64(e.Ramp); g < 1 {
			return g
		}
	}
	return 1
}

// On reports whether the envelope contributes any corruption at k.
func (e Envelope) On(k int) bool { return e.Gain(k) > 0 }

func (e Envelope) describe() string {
	s := fmt.Sprintf("[%d,%d)", e.Win.Start, e.Win.End)
	if e.Ramp > 1 {
		s += fmt.Sprintf(" ramp=%d", e.Ramp)
	}
	if e.Period > 1 {
		s += fmt.Sprintf(" period=%d duty=%.2f", e.Period, e.Duty)
	}
	return s
}

// scaled returns v at gain g. At full magnitude it returns v itself:
// x·1.0 is an IEEE-754 identity, so skipping the product changes no bit
// and saves a copy per active iteration.
func scaled(v mat.Vec, g float64) mat.Vec {
	if g == 1 {
		return v
	}
	return v.Scale(g)
}

// Occlusion models an environmental occluder at Distance meters in front
// of the listed beams of a ranging sensor: any beam reading farther than
// the occluder is clamped to it. It corrupts readings rather than the
// world map because the simulator and the detector share sensor objects
// — a map mutation would silently update the detector's measurement
// model too, and the occluder would stop being an anomaly.
type Occlusion struct {
	// Sensor is the target workflow name (a ranging sensor).
	Sensor string
	// Beams indexes the reading components clamped by the occluder.
	Beams []int
	// Distance is the occluder's range in meters.
	Distance float64
	// Env gates the occlusion (a Period models objects passing through
	// the beams; Ramp is meaningless here and rejected by the DSL).
	Env Envelope
	// Via is the originating channel (normally Environment).
	Via Channel
}

var _ SensorAttack = (*Occlusion)(nil)

// Target implements SensorAttack.
func (a *Occlusion) Target() string { return a.Sensor }

// Active implements SensorAttack.
func (a *Occlusion) Active(k int) bool { return a.Env.On(k) }

// Apply implements SensorAttack.
func (a *Occlusion) Apply(k int, reading mat.Vec) mat.Vec {
	if !a.Env.On(k) {
		return reading
	}
	out := reading.Clone()
	for _, i := range a.Beams {
		if i >= 0 && i < out.Len() && out[i] > a.Distance {
			out[i] = a.Distance
		}
	}
	return out
}

// Channel implements SensorAttack.
func (a *Occlusion) Channel() Channel { return a.Via }

// Describe implements SensorAttack.
func (a *Occlusion) Describe() string {
	return fmt.Sprintf("occlusion at %.2fm on %s beams %v %s (%s)",
		a.Distance, a.Sensor, a.Beams, a.Env.describe(), a.Via)
}

// WheelSlip models traction loss: the executed surface speed of the
// listed control components is scaled down by Slip (0 = full grip,
// 1 = free-spinning wheel). The envelope's ramp models a gradually
// worsening surface. Slip is an actuator misbehavior in the paper's
// taxonomy — the command the controller planned is not the motion the
// wheel delivers — so the detector attributes it to da_{k-1}.
type WheelSlip struct {
	// Slip is the fractional speed loss at full envelope gain, in [0, 1].
	Slip float64
	// Wheels indexes the affected control components.
	Wheels []int
	// Env shapes the slip over time.
	Env Envelope
	// Via is the originating channel (normally Environment).
	Via Channel
}

var _ ActuatorAttack = (*WheelSlip)(nil)

// Active implements ActuatorAttack.
func (a *WheelSlip) Active(k int) bool { return a.Env.On(k) && a.Slip != 0 }

// Apply implements ActuatorAttack.
func (a *WheelSlip) Apply(k int, u mat.Vec) mat.Vec {
	g := a.Env.Gain(k)
	if g == 0 || a.Slip == 0 {
		return u
	}
	out := u.Clone()
	for _, i := range a.Wheels {
		if i >= 0 && i < out.Len() {
			out[i] *= 1 - g*a.Slip
		}
	}
	return out
}

// Channel implements ActuatorAttack.
func (a *WheelSlip) Channel() Channel { return a.Via }

// Describe implements ActuatorAttack.
func (a *WheelSlip) Describe() string {
	return fmt.Sprintf("wheel slip %.0f%% on u%v %s (%s)",
		a.Slip*100, a.Wheels, a.Env.describe(), a.Via)
}
