// Package attack implements the misbehavior injection framework of §III-B
// and the concrete attack/failure scenarios of Table II. Misbehaviors are
// modeled exactly as the paper does: data corruptions applied inside
// sensing workflows (sensor anomaly vector ds_k) or actuation workflows
// (actuator anomaly vector da_{k-1}), regardless of whether the originating
// channel is physical (spoofing, jamming, wire cuts) or cyber (logic
// bombs, packet injection).
package attack

import (
	"fmt"

	"roboads/internal/mat"
)

// Channel identifies the originating channel of a misbehavior (Table I).
type Channel int

// Channel values.
const (
	// Physical covers signal spoofing, jamming, blocking, and mechanical
	// failures.
	Physical Channel = iota + 1
	// Cyber covers logic bombs, packet injection, and software defects.
	Cyber
	// Environment covers anomalies that originate in the world rather
	// than in an adversary's channel: occlusions blocking a ranging
	// sensor, wheel slip on a low-traction surface. The detector sees
	// them exactly like attacks — the distinction matters only for
	// ground-truth taxonomy (Ji et al. 2204.01146).
	Environment
)

// String implements fmt.Stringer.
func (c Channel) String() string {
	switch c {
	case Physical:
		return "physical"
	case Cyber:
		return "cyber"
	case Environment:
		return "environment"
	default:
		return fmt.Sprintf("channel(%d)", int(c))
	}
}

// Window is a half-open activation interval [Start, End) in control
// iterations. End ≤ 0 means the attack stays active forever.
type Window struct {
	Start, End int
}

// Contains reports whether iteration k falls inside the window.
func (w Window) Contains(k int) bool {
	return k >= w.Start && (w.End <= 0 || k < w.End)
}

// SensorAttack corrupts one sensing workflow's readings.
type SensorAttack interface {
	// Target names the sensing workflow being corrupted.
	Target() string
	// Active reports whether the attack corrupts iteration k.
	Active(k int) bool
	// Apply returns the corrupted reading for iteration k. It must not
	// modify its argument.
	Apply(k int, reading mat.Vec) mat.Vec
	// Channel reports the originating channel.
	Channel() Channel
	// Describe returns a human-readable summary.
	Describe() string
}

// ActuatorAttack corrupts the executed control commands.
type ActuatorAttack interface {
	// Active reports whether the attack corrupts iteration k.
	Active(k int) bool
	// Apply returns the executed command for iteration k given the
	// planned command. It must not modify its argument.
	Apply(k int, u mat.Vec) mat.Vec
	// Channel reports the originating channel.
	Channel() Channel
	// Describe returns a human-readable summary.
	Describe() string
}

// --- sensor attacks --------------------------------------------------------

// Bias adds an offset vector to a sensor's readings — the model behind
// IPS logic bombs (scenario #3), IPS spoofing (#4), and any other
// constant-shift corruption. The offset is scaled by Env.Gain(k); an
// envelope with no ramp and no period holds the gain at exactly 1, the
// constant shift of Table II, and a ramp or duty cycle makes it the §V-H
// stealthy or intermittent attacker of the scenario engine.
type Bias struct {
	// Sensor is the target workflow name.
	Sensor string
	// Offset is the full-magnitude offset, added component-wise.
	Offset mat.Vec
	// Env shapes the magnitude over time.
	Env Envelope
	// Via is the originating channel.
	Via Channel
}

var _ SensorAttack = (*Bias)(nil)

// Target implements SensorAttack.
func (a *Bias) Target() string { return a.Sensor }

// Active implements SensorAttack.
func (a *Bias) Active(k int) bool { return a.Env.On(k) }

// Apply implements SensorAttack.
func (a *Bias) Apply(k int, reading mat.Vec) mat.Vec {
	g := a.Env.Gain(k)
	if g == 0 {
		return reading
	}
	return reading.Add(scaled(a.Offset, g))
}

// Channel implements SensorAttack.
func (a *Bias) Channel() Channel { return a.Via }

// Describe implements SensorAttack.
func (a *Bias) Describe() string {
	return fmt.Sprintf("bias %v on %s %s (%s)", a.Offset, a.Sensor, a.Env.describe(), a.Via)
}

// Zero forces a sensor's entire reading vector to zero — the LiDAR DoS of
// scenario #6 ("received distance reading is 0 m in each direction").
type Zero struct {
	// Sensor is the target workflow name.
	Sensor string
	// Win is the activation window.
	Win Window
	// Via is the originating channel.
	Via Channel
}

var _ SensorAttack = (*Zero)(nil)

// Target implements SensorAttack.
func (a *Zero) Target() string { return a.Sensor }

// Active implements SensorAttack.
func (a *Zero) Active(k int) bool { return a.Win.Contains(k) }

// Apply implements SensorAttack.
func (a *Zero) Apply(k int, reading mat.Vec) mat.Vec {
	if !a.Active(k) {
		return reading
	}
	return mat.NewVec(reading.Len())
}

// Channel implements SensorAttack.
func (a *Zero) Channel() Channel { return a.Via }

// Describe implements SensorAttack.
func (a *Zero) Describe() string {
	return fmt.Sprintf("DoS (all-zero readings) on %s (%s)", a.Sensor, a.Via)
}

// Override forces one component of a sensor's reading to a fixed value —
// the LiDAR beam blocking of scenario #7 ("distance reading to the left
// wall is incorrect").
type Override struct {
	// Sensor is the target workflow name.
	Sensor string
	// Index is the reading component to override.
	Index int
	// Value replaces the component.
	Value float64
	// Win is the activation window.
	Win Window
	// Via is the originating channel.
	Via Channel
}

var _ SensorAttack = (*Override)(nil)

// Target implements SensorAttack.
func (a *Override) Target() string { return a.Sensor }

// Active implements SensorAttack.
func (a *Override) Active(k int) bool { return a.Win.Contains(k) }

// Apply implements SensorAttack.
func (a *Override) Apply(k int, reading mat.Vec) mat.Vec {
	if !a.Active(k) || a.Index >= reading.Len() {
		return reading
	}
	out := reading.Clone()
	out[a.Index] = a.Value
	return out
}

// Channel implements SensorAttack.
func (a *Override) Channel() Channel { return a.Via }

// Describe implements SensorAttack.
func (a *Override) Describe() string {
	return fmt.Sprintf("override component %d of %s to %v (%s)", a.Index, a.Sensor, a.Value, a.Via)
}

// EncoderTicks injects counts into one wheel's encoder tick stream inside
// the odometry workflow — scenario #5's "increment 100 steps on left
// wheel encoder". The corrupted ticks are integrated by dead reckoning,
// so a one-shot injection becomes a persistent pose deviation. The
// simulator's encoder workflow recognizes this attack type and applies it
// at the tick level (see sim.EncoderWorkflow).
type EncoderTicks struct {
	// Wheel selects the wheel: 0 = left, 1 = right.
	Wheel int
	// Ticks is the injected tick count.
	Ticks float64
	// PerIteration repeats the injection every active iteration instead
	// of once at window start.
	PerIteration bool
	// Win is the activation window.
	Win Window
	// Via is the originating channel.
	Via Channel
}

var _ SensorAttack = (*EncoderTicks)(nil)

// Target implements SensorAttack: encoder attacks always target the
// wheel-encoder workflow.
func (a *EncoderTicks) Target() string { return "wheel-encoder" }

// Active implements SensorAttack.
func (a *EncoderTicks) Active(k int) bool { return a.Win.Contains(k) }

// Apply implements SensorAttack as the identity: the corruption happens
// at the tick level via CorruptTicks, before the reading is formed.
func (a *EncoderTicks) Apply(_ int, reading mat.Vec) mat.Vec { return reading }

// CorruptTicks returns the tick deltas to add to (left, right) wheel tick
// counts at iteration k.
func (a *EncoderTicks) CorruptTicks(k int) (left, right float64) {
	if !a.Active(k) {
		return 0, 0
	}
	if !a.PerIteration && k != a.Win.Start {
		return 0, 0
	}
	if a.Wheel == 0 {
		return a.Ticks, 0
	}
	return 0, a.Ticks
}

// Channel implements SensorAttack.
func (a *EncoderTicks) Channel() Channel { return a.Via }

// Describe implements SensorAttack.
func (a *EncoderTicks) Describe() string {
	wheel := "left"
	if a.Wheel != 0 {
		wheel = "right"
	}
	return fmt.Sprintf("inject %+.0f ticks on %s wheel encoder (%s)", a.Ticks, wheel, a.Via)
}

// --- actuator attacks ------------------------------------------------------

// ActuatorBias adds an offset to the executed control command — the
// wheel controller logic bomb of scenario #1 ("−6000 speed units on vL,
// +6000 on vR") and the unintended-acceleration class of Table I, and,
// under a ramp or duty cycle, the actuator-side §V-H stealth attacker.
// The offset is scaled by Env.Gain(k), as in Bias.
type ActuatorBias struct {
	// Offset is the full-magnitude offset, added to the planned command
	// component-wise.
	Offset mat.Vec
	// Env shapes the magnitude over time.
	Env Envelope
	// Via is the originating channel.
	Via Channel
}

var _ ActuatorAttack = (*ActuatorBias)(nil)

// Active implements ActuatorAttack.
func (a *ActuatorBias) Active(k int) bool { return a.Env.On(k) }

// Apply implements ActuatorAttack.
func (a *ActuatorBias) Apply(k int, u mat.Vec) mat.Vec {
	g := a.Env.Gain(k)
	if g == 0 {
		return u
	}
	return u.Add(scaled(a.Offset, g))
}

// Channel implements ActuatorAttack.
func (a *ActuatorBias) Channel() Channel { return a.Via }

// Describe implements ActuatorAttack.
func (a *ActuatorBias) Describe() string {
	return fmt.Sprintf("actuator bias %v %s (%s)", a.Offset, a.Env.describe(), a.Via)
}

// ActuatorScale multiplies one control component of the executed command
// — Table I's tire blowout, where "enormous tire friction" scales one
// wheel's effective surface speed down.
type ActuatorScale struct {
	// Index is the control component to scale.
	Index int
	// Factor multiplies the component.
	Factor float64
	// Win is the activation window.
	Win Window
	// Via is the originating channel.
	Via Channel
}

var _ ActuatorAttack = (*ActuatorScale)(nil)

// Active implements ActuatorAttack.
func (a *ActuatorScale) Active(k int) bool { return a.Win.Contains(k) }

// Apply implements ActuatorAttack.
func (a *ActuatorScale) Apply(k int, u mat.Vec) mat.Vec {
	if !a.Active(k) || a.Index >= u.Len() {
		return u
	}
	out := u.Clone()
	out[a.Index] *= a.Factor
	return out
}

// Channel implements ActuatorAttack.
func (a *ActuatorScale) Channel() Channel { return a.Via }

// Describe implements ActuatorAttack.
func (a *ActuatorScale) Describe() string {
	return fmt.Sprintf("actuator scale u[%d]×%v (%s)", a.Index, a.Factor, a.Via)
}

// ActuatorOverride forces one control component to a fixed executed value
// — the physical wheel jam of scenario #2 ("0 speed units on vL").
type ActuatorOverride struct {
	// Index is the control component to override.
	Index int
	// Value replaces the component.
	Value float64
	// Win is the activation window.
	Win Window
	// Via is the originating channel.
	Via Channel
}

var _ ActuatorAttack = (*ActuatorOverride)(nil)

// Active implements ActuatorAttack.
func (a *ActuatorOverride) Active(k int) bool { return a.Win.Contains(k) }

// Apply implements ActuatorAttack.
func (a *ActuatorOverride) Apply(k int, u mat.Vec) mat.Vec {
	if !a.Active(k) || a.Index >= u.Len() {
		return u
	}
	out := u.Clone()
	out[a.Index] = a.Value
	return out
}

// Channel implements ActuatorAttack.
func (a *ActuatorOverride) Channel() Channel { return a.Via }

// Describe implements ActuatorAttack.
func (a *ActuatorOverride) Describe() string {
	return fmt.Sprintf("actuator override u[%d]=%v (%s)", a.Index, a.Value, a.Via)
}

// RampBias grows a sensor offset linearly from zero — the adaptive
// §V-H attacker who tries to stay under the alarm threshold by moving
// slowly. Against absolute-reference sensors the detector fires once the
// accumulated magnitude crosses its fixed envelope, so the slow ramp
// buys stealth time but not impact.
type RampBias struct {
	// Sensor is the target workflow name.
	Sensor string
	// RatePerIteration is the per-iteration offset increment vector.
	RatePerIteration mat.Vec
	// Win is the activation window; the ramp starts at Win.Start.
	Win Window
	// Via is the originating channel.
	Via Channel
}

var _ SensorAttack = (*RampBias)(nil)

// Target implements SensorAttack.
func (a *RampBias) Target() string { return a.Sensor }

// Active implements SensorAttack.
func (a *RampBias) Active(k int) bool { return a.Win.Contains(k) }

// OffsetAt returns the accumulated offset at iteration k.
func (a *RampBias) OffsetAt(k int) mat.Vec {
	if !a.Active(k) {
		return mat.NewVec(a.RatePerIteration.Len())
	}
	return a.RatePerIteration.Scale(float64(k - a.Win.Start + 1))
}

// Apply implements SensorAttack.
func (a *RampBias) Apply(k int, reading mat.Vec) mat.Vec {
	if !a.Active(k) {
		return reading
	}
	return reading.Add(a.OffsetAt(k))
}

// Channel implements SensorAttack.
func (a *RampBias) Channel() Channel { return a.Via }

// Describe implements SensorAttack.
func (a *RampBias) Describe() string {
	return fmt.Sprintf("ramping bias %v/iteration on %s (%s)", a.RatePerIteration, a.Sensor, a.Via)
}
