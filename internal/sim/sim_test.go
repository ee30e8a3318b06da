package sim

import (
	"errors"
	"math"
	"testing"

	"roboads/internal/attack"
	"roboads/internal/dynamics"
	"roboads/internal/mat"
	"roboads/internal/sensors"
	"roboads/internal/stat"
	"roboads/internal/world"
)

func TestBasicWorkflowNoiseStatistics(t *testing.T) {
	ips := sensors.NewIPS(3)
	w := NewBasicWorkflow(ips, stat.NewRNG(1))
	x := mat.VecOf(1, 2, 0.3)
	const n = 20000
	var sum, sumSq float64
	for k := 0; k < n; k++ {
		z := w.Sense(k, x, nil)
		d := z[0] - 1
		sum += d
		sumSq += d * d
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 1e-4 {
		t.Fatalf("reading bias %v", mean)
	}
	if math.Abs(std-ips.SigmaPos) > 0.1*ips.SigmaPos {
		t.Fatalf("reading std %v, want ≈ %v", std, ips.SigmaPos)
	}
}

func TestBasicWorkflowAppliesAttack(t *testing.T) {
	ips := sensors.NewIPS(3)
	w := NewBasicWorkflow(ips, stat.NewRNG(2))
	w.Attach(&attack.Bias{Sensor: "ips", Offset: mat.VecOf(0.5, 0, 0), Env: attack.Envelope{Win: attack.Window{Start: 10}}})
	x := mat.VecOf(1, 2, 0.3)
	before := w.Sense(5, x, nil)
	after := w.Sense(10, x, nil)
	if math.Abs(before[0]-1) > 0.01 {
		t.Fatalf("pre-attack reading %v", before)
	}
	if math.Abs(after[0]-1.5) > 0.01 {
		t.Fatalf("post-attack reading %v", after)
	}
}

func TestEncoderWorkflowTickInjectionPersists(t *testing.T) {
	model := dynamics.NewKhepera(0.1)
	we := sensors.NewWheelEncoder(3)
	w := NewEncoderWorkflow(model, we, stat.NewRNG(3))
	w.Attach(&attack.EncoderTicks{Wheel: 0, Ticks: 100, Win: attack.Window{Start: 5}, Via: attack.Cyber})

	x := mat.VecOf(1, 1, 0) // facing +x
	pre := w.Sense(4, x, nil)
	if math.Abs(pre[0]-1) > 0.01 {
		t.Fatalf("pre-attack reading %v", pre)
	}
	// At onset, 100 injected ticks add 100·TickMeters of left-wheel
	// travel: forward half of it, and a clockwise heading offset of
	// travel/wheelbase (left wheel ahead turns the odometry estimate
	// right).
	travel := 100 * attack.TickMeters
	wantX := 1 + travel/2
	wantTheta := -travel / model.WheelBase
	onset := w.Sense(5, x, nil)
	if math.Abs(onset[0]-wantX) > 0.005 {
		t.Fatalf("onset x reading %v, want ≈ %v", onset[0], wantX)
	}
	if math.Abs(onset[2]-wantTheta) > 0.015 {
		t.Fatalf("onset θ reading %v, want ≈ %v", onset[2], wantTheta)
	}
	// The offset persists on later iterations (dead-reckoned).
	later := w.Sense(20, x, nil)
	if math.Abs(later[2]-wantTheta) > 0.015 {
		t.Fatalf("offset did not persist: %v", later)
	}
}

func TestSimulatorCleanMissionReachesGoal(t *testing.T) {
	clean := attack.CleanScenario()
	setup, err := NewKhepera(LabMission(), &clean, 1)
	if err != nil {
		t.Fatal(err)
	}
	records, err := setup.Sim.Run(1200)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no records")
	}
	last := records[len(records)-1]
	if !last.Done {
		t.Fatalf("mission incomplete after %d iterations; final %v", len(records), last.XTrue)
	}
	goal := LabMission().Goal
	if d := math.Hypot(last.XTrue[0]-goal.X, last.XTrue[1]-goal.Y); d > 0.15 {
		t.Fatalf("finished %.3f m from goal", d)
	}
	// Mission stays collision-free.
	m := LabMission().Map
	for _, rec := range records {
		if !m.Free(world.Point{X: rec.XTrue[0], Y: rec.XTrue[1]}, 0.0) {
			t.Fatalf("k=%d: robot at %v left free space", rec.K, rec.XTrue)
		}
	}
}

func TestSimulatorDeterministicPerSeed(t *testing.T) {
	clean := attack.CleanScenario()
	run := func() []*StepRecord {
		setup, err := NewKhepera(LabMission(), &clean, 7)
		if err != nil {
			t.Fatal(err)
		}
		records, err := setup.Sim.Run(300)
		if err != nil {
			t.Fatal(err)
		}
		return records
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].XTrue.Sub(r2[i].XTrue).MaxAbs() != 0 {
			t.Fatalf("step %d diverged", i)
		}
	}
}

func TestSimulatorActuatorAttackChangesTrajectory(t *testing.T) {
	scenarios := attack.KheperaScenarios()
	jam := scenarios[1] // #2 wheel jamming
	setup, err := NewKhepera(LabMission(), &jam, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sawDeviation bool
	for i := 0; i < 400; i++ {
		rec, err := setup.Sim.Step()
		if errors.Is(err, ErrMissionOver) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Truth.ActuatorCorrupted {
			if rec.UExecuted[0] != 0 {
				t.Fatalf("k=%d: jammed wheel still moving: %v", rec.K, rec.UExecuted)
			}
			if rec.UPlanned[0] != 0 {
				sawDeviation = true
			}
		}
		if rec.Done {
			break
		}
	}
	if !sawDeviation {
		t.Fatal("planned and executed commands never diverged under jam")
	}
}

func TestSimulatorSensorAttackOnlyAffectsTarget(t *testing.T) {
	scenarios := attack.KheperaScenarios()
	dos := scenarios[5] // #6 LiDAR DoS
	setup, err := NewKhepera(LabMission(), &dos, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rec, err := setup.Sim.Step()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Truth.CorruptedSensors["lidar"] {
			if rec.Readings["lidar"].MaxAbs() != 0 {
				t.Fatalf("k=%d: DoS'd lidar nonzero: %v", rec.K, rec.Readings["lidar"])
			}
			// Other sensors stay within plausible range of truth.
			if d := rec.Readings["ips"][0] - rec.XTrue[0]; math.Abs(d) > 0.01 {
				t.Fatalf("k=%d: ips corrupted too: %v", rec.K, d)
			}
			return // saw at least one corrupted iteration
		}
	}
	t.Fatal("attack never activated")
}

func TestSimulatorRejectsUnknownTarget(t *testing.T) {
	bad := attack.Scenario{
		ID:   999,
		Name: "bad",
		SensorAttacks: []attack.SensorAttack{
			&attack.Bias{Sensor: "nonexistent", Offset: mat.VecOf(1), Env: attack.Envelope{Win: attack.Window{Start: 0}}},
		},
	}
	if _, err := NewKhepera(LabMission(), &bad, 1); err == nil {
		t.Fatal("unknown workflow target accepted")
	}
}

func TestSimulatorStepAfterDone(t *testing.T) {
	clean := attack.CleanScenario()
	setup, err := NewKhepera(LabMission(), &clean, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Sim.Run(2000); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Sim.Step(); !errors.Is(err, ErrMissionOver) {
		t.Fatalf("err = %v, want ErrMissionOver", err)
	}
}

func TestTamiyaCleanMission(t *testing.T) {
	clean := attack.CleanScenario()
	setup, err := NewTamiya(LabMission(), &clean, 5)
	if err != nil {
		t.Fatal(err)
	}
	records, err := setup.Sim.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	last := records[len(records)-1]
	if !last.Done {
		t.Fatalf("Tamiya mission incomplete after %d iterations; final %v", len(records), last.XTrue)
	}
	if len(setup.Suite) != 3 {
		t.Fatalf("Tamiya suite = %d sensors", len(setup.Suite))
	}
	if _, ok := records[10].Readings["imu"]; !ok {
		t.Fatal("IMU reading missing")
	}
}

func TestKheperaIPSSpoofDeviatesMission(t *testing.T) {
	// Under IPS spoofing the planner is fooled: the true trajectory
	// shifts by roughly the spoof offset relative to the clean run —
	// the physical impact motivating detection.
	maxXFor := func(s attack.Scenario) float64 {
		setup, err := NewKhepera(LabMission(), &s, 6)
		if err != nil {
			t.Fatal(err)
		}
		records, err := setup.Sim.Run(1200)
		if err != nil {
			t.Fatal(err)
		}
		var maxX float64
		for _, rec := range records {
			if rec.XTrue[0] > maxX {
				maxX = rec.XTrue[0]
			}
		}
		return maxX
	}
	spoofed := maxXFor(attack.KheperaScenarios()[3]) // #4: -0.1 m on X
	clean := maxXFor(attack.CleanScenario())
	// The robot believes it is 0.1 m left of reality, so the true
	// trajectory overshoots right relative to the clean run.
	if spoofed < clean+0.05 {
		t.Fatalf("spoof did not shift the trajectory: spoofed maxX=%.3f clean maxX=%.3f", spoofed, clean)
	}
}

func TestWarehouseMission(t *testing.T) {
	clean := attack.CleanScenario()
	setup, err := NewKhepera(warehouseMission(), &clean, 21)
	if err != nil {
		t.Fatal(err)
	}
	records, err := setup.Sim.Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	if !records[len(records)-1].Done {
		t.Fatalf("warehouse mission incomplete after %d iterations", len(records))
	}
	if got := setup.Sim.Collisions(); got != 0 {
		t.Fatalf("clean warehouse mission collided %d times", got)
	}
}

func TestCollisionFlagUnderAttack(t *testing.T) {
	// An aggressive uncompensated steering bias should eventually push
	// the robot into a wall or shelf; the collision flag must record it.
	scenario := attack.Scenario{
		ID:   900,
		Name: "violent takeover",
		ActuatorAttacks: []attack.ActuatorAttack{
			&attack.ActuatorBias{
				Offset: mat.VecOf(-0.2, 0.2),
				Env:    attack.Envelope{Win: attack.Window{Start: 30}},
				Via:    attack.Cyber,
			},
		},
	}
	setup, err := NewKhepera(LabMission(), &scenario, 8)
	if err != nil {
		t.Fatal(err)
	}
	records, err := setup.Sim.Run(700)
	if err != nil {
		t.Fatal(err)
	}
	collided := false
	for _, rec := range records {
		if rec.Collided {
			collided = true
			break
		}
	}
	if !collided || setup.Sim.Collisions() == 0 {
		t.Fatal("violent takeover never collided — collision flag inert?")
	}
}

func TestCollisionCheckDisabledByDefault(t *testing.T) {
	model := dynamics.NewKhepera(0.1)
	we := sensors.NewWheelEncoder(3)
	clean := attack.CleanScenario()
	tracker := stationaryTracker{}
	s, err := New(model, tracker, []SensingWorkflow{NewEncoderWorkflow(model, we, stat.NewRNG(1))},
		&clean, mat.VecOf(1e-4, 1e-4, 1e-4), mat.VecOf(-10, -10, 0), stat.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-arena position, but no arena registered → no collision flag.
	if rec.Collided || s.Collisions() != 0 {
		t.Fatal("collision flagged without an arena")
	}
}

// stationaryTracker commands zero wheel speeds forever.
type stationaryTracker struct{}

func (stationaryTracker) Control(x mat.Vec) (mat.Vec, bool) {
	return mat.VecOf(0, 0), false
}

func TestBasicWorkflowDecimation(t *testing.T) {
	ips := sensors.NewIPS(3)
	w := NewBasicWorkflow(ips, stat.NewRNG(5))
	w.Every = 3

	xA := mat.VecOf(1, 1, 0)
	xB := mat.VecOf(2, 2, 1)
	fresh := w.Sense(0, xA, nil)
	held1 := w.Sense(1, xB, nil) // robot moved, sensor holds
	held2 := w.Sense(2, xB, nil)
	if held1.Sub(fresh).MaxAbs() != 0 || held2.Sub(fresh).MaxAbs() != 0 {
		t.Fatal("zero-order hold violated")
	}
	next := w.Sense(3, xB, nil) // new sample reflects the move
	if next.Sub(fresh).MaxAbs() < 0.5 {
		t.Fatalf("decimated sensor never refreshed: %v", next)
	}
	// Mutating the returned reading must not corrupt the held copy.
	got := w.Sense(4, xA, nil)
	got[0] = 99
	if again := w.Sense(5, xA, nil); again[0] == 99 {
		t.Fatal("held reading aliased")
	}
}
