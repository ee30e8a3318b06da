package attack

import (
	"math"
	"strings"
	"testing"

	"roboads/internal/mat"
)

func TestWindowContains(t *testing.T) {
	w := Window{Start: 10, End: 20}
	if w.Contains(9) || !w.Contains(10) || !w.Contains(19) || w.Contains(20) {
		t.Fatal("half-open window semantics violated")
	}
	open := Window{Start: 5}
	if !open.Contains(1_000_000) || open.Contains(4) {
		t.Fatal("open window semantics violated")
	}
}

func TestBias(t *testing.T) {
	a := &Bias{Sensor: "ips", Offset: mat.VecOf(0.07, 0, 0), Env: Envelope{Win: Window{Start: 5}}, Via: Cyber}
	reading := mat.VecOf(1, 2, 3)
	if got := a.Apply(4, reading); got[0] != 1 {
		t.Fatalf("inactive bias applied: %v", got)
	}
	got := a.Apply(5, reading)
	if got[0] != 1.07 || got[1] != 2 {
		t.Fatalf("active bias = %v", got)
	}
	if reading[0] != 1 {
		t.Fatal("Apply mutated its argument")
	}
	if a.Target() != "ips" || a.Channel() != Cyber {
		t.Fatal("metadata wrong")
	}
}

func TestZero(t *testing.T) {
	a := &Zero{Sensor: "lidar", Win: Window{Start: 0}, Via: Physical}
	got := a.Apply(3, mat.VecOf(1, 2, 3, 4))
	if got.MaxAbs() != 0 || got.Len() != 4 {
		t.Fatalf("Zero = %v", got)
	}
}

func TestOverride(t *testing.T) {
	a := &Override{Sensor: "lidar", Index: 0, Value: 0.12, Win: Window{Start: 0}, Via: Physical}
	in := mat.VecOf(2, 3, 4, 0.5)
	got := a.Apply(1, in)
	if got[0] != 0.12 || got[1] != 3 {
		t.Fatalf("Override = %v", got)
	}
	if in[0] != 2 {
		t.Fatal("Apply mutated its argument")
	}
	// Out-of-range index degrades to identity.
	short := &Override{Sensor: "x", Index: 9, Value: 1, Win: Window{Start: 0}}
	if got := short.Apply(0, mat.VecOf(1)); got[0] != 1 {
		t.Fatal("out-of-range override should be identity")
	}
}

func TestEncoderTicksOneShot(t *testing.T) {
	a := &EncoderTicks{Wheel: 0, Ticks: 100, Win: Window{Start: 7}, Via: Cyber}
	if l, r := a.CorruptTicks(6); l != 0 || r != 0 {
		t.Fatal("ticks injected before window")
	}
	if l, r := a.CorruptTicks(7); l != 100 || r != 0 {
		t.Fatalf("onset injection = %v, %v", l, r)
	}
	if l, _ := a.CorruptTicks(8); l != 0 {
		t.Fatal("one-shot attack repeated")
	}
	// Reading passthrough: corruption happens at tick level only.
	if got := a.Apply(7, mat.VecOf(1, 2, 3)); got[0] != 1 {
		t.Fatal("Apply should be identity for tick attacks")
	}
}

func TestEncoderTicksPerIteration(t *testing.T) {
	a := &EncoderTicks{Wheel: 1, Ticks: 10, PerIteration: true, Win: Window{Start: 3, End: 5}}
	if _, r := a.CorruptTicks(3); r != 10 {
		t.Fatal("missing injection at 3")
	}
	if _, r := a.CorruptTicks(4); r != 10 {
		t.Fatal("missing injection at 4")
	}
	if _, r := a.CorruptTicks(5); r != 0 {
		t.Fatal("injection past window end")
	}
}

func TestActuatorBias(t *testing.T) {
	a := &ActuatorBias{Offset: mat.VecOf(-6000*SpeedUnit, 6000*SpeedUnit), Env: Envelope{Win: Window{Start: 2}}, Via: Cyber}
	u := mat.VecOf(0.15, 0.15)
	got := a.Apply(2, u)
	if math.Abs(got[0]-(0.15-0.04)) > 1e-12 || math.Abs(got[1]-(0.15+0.04)) > 1e-12 {
		t.Fatalf("ActuatorBias = %v", got)
	}
	if u[0] != 0.15 {
		t.Fatal("Apply mutated its argument")
	}
}

func TestActuatorOverride(t *testing.T) {
	a := &ActuatorOverride{Index: 0, Value: 0, Win: Window{Start: 0}, Via: Physical}
	got := a.Apply(0, mat.VecOf(0.2, 0.3))
	if got[0] != 0 || got[1] != 0.3 {
		t.Fatalf("ActuatorOverride = %v", got)
	}
}

func TestSpeedUnitCalibration(t *testing.T) {
	// §V-H: 900 units = 0.006 m/s, so 6000 units = 0.04 m/s.
	if math.Abs(6000*SpeedUnit-0.04) > 1e-12 {
		t.Fatalf("6000 units = %v m/s, want 0.04", 6000*SpeedUnit)
	}
}

func TestScenarioTruth(t *testing.T) {
	scenarios := KheperaScenarios()
	if len(scenarios) != 11 {
		t.Fatalf("scenario count = %d, want 11", len(scenarios))
	}
	s8 := scenarios[7]
	if s8.ID != 8 {
		t.Fatalf("scenario at index 7 has ID %d", s8.ID)
	}
	pre := s8.TruthAt(0)
	if len(pre.CorruptedSensors) != 0 || pre.ActuatorCorrupted {
		t.Fatal("truth before onset should be clean")
	}
	mid := s8.TruthAt(onsetA)
	if !mid.CorruptedSensors["ips"] || mid.ActuatorCorrupted {
		t.Fatalf("truth at sensor onset = %+v", mid)
	}
	late := s8.TruthAt(onsetB)
	if !late.CorruptedSensors["ips"] || !late.ActuatorCorrupted {
		t.Fatalf("truth at actuator onset = %+v", late)
	}
}

func TestScenario10Recovery(t *testing.T) {
	s10 := KheperaScenarios()[9]
	during := s10.TruthAt(onsetA)
	if !during.CorruptedSensors["lidar"] {
		t.Fatal("lidar should be corrupted during its window")
	}
	after := s10.TruthAt(endB)
	if after.CorruptedSensors["lidar"] {
		t.Fatal("lidar should recover after its window (S0→3→5→1 path)")
	}
	if !after.CorruptedSensors["ips"] {
		t.Fatal("ips should remain corrupted")
	}
}

func TestOnsetIterations(t *testing.T) {
	s := KheperaScenarios()[8] // #9: two staggered sensor attacks
	got := s.OnsetIterations()
	if len(got) != 2 || got[0] != onsetA || got[1] != onsetB {
		t.Fatalf("onsets = %v", got)
	}
}

func TestCleanScenario(t *testing.T) {
	c := CleanScenario()
	if !c.Clean() {
		t.Fatal("clean scenario reports attacks")
	}
	truth := c.TruthAt(100)
	if len(truth.CorruptedSensors) != 0 || truth.ActuatorCorrupted {
		t.Fatal("clean scenario has nonclean truth")
	}
}

func TestTamiyaScenarios(t *testing.T) {
	ts := TamiyaScenarios()
	if len(ts) != 5 {
		t.Fatalf("Tamiya scenario count = %d", len(ts))
	}
	for _, s := range ts {
		if s.Clean() {
			t.Fatalf("scenario %v has no attacks", &s)
		}
	}
}

func TestChannelString(t *testing.T) {
	if Physical.String() != "physical" || Cyber.String() != "cyber" {
		t.Fatal("channel strings wrong")
	}
	if Channel(99).String() != "channel(99)" {
		t.Fatal("unknown channel string wrong")
	}
}

func TestActuatorScale(t *testing.T) {
	a := &ActuatorScale{Index: 1, Factor: 0.5, Win: Window{Start: 3}, Via: Physical}
	u := mat.VecOf(0.2, 0.2)
	if got := a.Apply(2, u); got[1] != 0.2 {
		t.Fatalf("inactive scale applied: %v", got)
	}
	got := a.Apply(3, u)
	if got[1] != 0.1 || got[0] != 0.2 {
		t.Fatalf("scale = %v", got)
	}
	if u[1] != 0.2 {
		t.Fatal("Apply mutated its argument")
	}
	if a.Channel() != Physical {
		t.Fatal("channel wrong")
	}
	// Out-of-range index degrades to identity.
	far := &ActuatorScale{Index: 7, Factor: 0, Win: Window{Start: 0}}
	if got := far.Apply(0, mat.VecOf(1)); got[0] != 1 {
		t.Fatal("out-of-range scale should be identity")
	}
}

func TestTireBlowoutScenario(t *testing.T) {
	s := TireBlowoutScenario()
	if s.Clean() {
		t.Fatal("tire blowout has no attacks")
	}
	truth := s.TruthAt(onsetA)
	if !truth.ActuatorCorrupted || len(truth.CorruptedSensors) != 0 {
		t.Fatalf("truth = %+v", truth)
	}
}

func TestDescribeStrings(t *testing.T) {
	descriptions := []string{
		(&Bias{Sensor: "ips", Offset: mat.VecOf(0.1), Via: Cyber}).Describe(),
		(&Zero{Sensor: "lidar", Via: Physical}).Describe(),
		(&Override{Sensor: "lidar", Index: 0, Value: 0.1, Via: Physical}).Describe(),
		(&EncoderTicks{Wheel: 0, Ticks: 100, Via: Cyber}).Describe(),
		(&EncoderTicks{Wheel: 1, Ticks: 10, Via: Cyber}).Describe(),
		(&ActuatorBias{Offset: mat.VecOf(0.1, 0), Via: Cyber}).Describe(),
		(&ActuatorOverride{Index: 0, Value: 0, Via: Physical}).Describe(),
		(&ActuatorScale{Index: 1, Factor: 0.5, Via: Physical}).Describe(),
	}
	for i, d := range descriptions {
		if d == "" {
			t.Fatalf("description %d empty", i)
		}
	}
	if got := (&EncoderTicks{Wheel: 1, Ticks: 10}).Describe(); !strings.Contains(got, "right") {
		t.Fatalf("wheel naming: %q", got)
	}
	if got := (&Scenario{ID: 3, Name: "x"}).String(); got != "#3 x" {
		t.Fatalf("scenario string: %q", got)
	}
}

func TestRampBias(t *testing.T) {
	a := &RampBias{
		Sensor:           "ips",
		RatePerIteration: mat.VecOf(0.001, 0, 0),
		Win:              Window{Start: 10},
		Via:              Physical,
	}
	if got := a.OffsetAt(9); got.MaxAbs() != 0 {
		t.Fatalf("offset before window = %v", got)
	}
	if got := a.OffsetAt(10); math.Abs(got[0]-0.001) > 1e-15 {
		t.Fatalf("offset at onset = %v", got)
	}
	if got := a.OffsetAt(59); math.Abs(got[0]-0.05) > 1e-12 {
		t.Fatalf("offset at k=59 = %v", got)
	}
	reading := mat.VecOf(1, 2, 3)
	got := a.Apply(19, reading)
	if math.Abs(got[0]-1.010) > 1e-12 {
		t.Fatalf("Apply = %v", got)
	}
	if reading[0] != 1 {
		t.Fatal("Apply mutated its argument")
	}
	if a.Describe() == "" || a.Target() != "ips" {
		t.Fatal("metadata wrong")
	}
}
