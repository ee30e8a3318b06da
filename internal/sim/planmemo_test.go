package sim

import (
	"math"
	"strconv"
	"sync"
	"testing"

	"roboads/internal/attack"
	"roboads/internal/plan"
	"roboads/internal/stat"
	"roboads/internal/world"
)

// The seeds below are used by no other test in this package, so the memo
// holds none of their plans when a test starts.

func warehouseMission() Mission {
	return Mission{
		Map:          world.WarehouseArena(),
		Start:        world.Point{X: 0.6, Y: 0.6},
		StartHeading: 0.4,
		Goal:         world.Point{X: 7.2, Y: 5.4},
	}
}

// freshPlan is planToGoal without the memo: the planner on the seed's
// "planner" fork, then the hop to the exact goal when it is free.
func freshPlan(t *testing.T, mission Mission, seed int64) []world.Point {
	t.Helper()
	cfg := plan.DefaultConfig()
	path, err := plan.Plan(mission.Map, mission.Start, mission.Goal, cfg, stat.NewRNG(seed).Fork("planner"))
	if err != nil {
		t.Fatal(err)
	}
	last := path[len(path)-1]
	if last.Dist(mission.Goal) > 1e-9 &&
		mission.Map.SegmentFree(world.Segment{A: last, B: mission.Goal}, cfg.Margin, 0) {
		path = append(path, mission.Goal)
	}
	return path
}

func samePath(a, b []world.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

func memoLen() int {
	plans.mu.Lock()
	defer plans.mu.Unlock()
	return len(plans.paths)
}

func TestMissionWithoutMapFails(t *testing.T) {
	mission := LabMission()
	mission.Map = nil
	clean := attack.CleanScenario()
	if _, err := NewKhepera(mission, &clean, 1); err == nil {
		t.Fatal("NewKhepera accepted a mission without a map")
	}
	if _, err := NewTamiya(mission, &clean, 1); err == nil {
		t.Fatal("NewTamiya accepted a mission without a map")
	}
}

// A memoised path is the fresh plan bit for bit, Khepera and Tamiya share
// one entry per (mission, seed), and a simulator built on a hit draws the
// same noise as one built on the miss.
func TestPlanMemoHitMatchesFreshPlan(t *testing.T) {
	clean := attack.CleanScenario()
	for _, w := range []struct {
		name    string
		mission func() Mission
	}{{"lab", LabMission}, {"warehouse", warehouseMission}} {
		for _, seed := range []int64{9101, 9102, 9103} {
			mission := w.mission()
			want := freshPlan(t, mission, seed)
			if _, ok := plans.get(planKey(mission, seed)); ok {
				t.Fatalf("%s seed %d: memoised before its first plan", w.name, seed)
			}
			miss, err := NewKhepera(mission, &clean, seed)
			if err != nil {
				t.Fatal(err)
			}
			n := memoLen()
			hit, err := NewKhepera(w.mission(), &clean, seed)
			if err != nil {
				t.Fatal(err)
			}
			tamiya, err := NewTamiya(w.mission(), &clean, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := memoLen(); got != n {
				t.Fatalf("%s seed %d: memo grew from %d to %d on hits", w.name, seed, n, got)
			}
			raw, err := planToGoal(w.mission(), seed, stat.NewRNG(seed).Fork("planner"))
			if err != nil {
				t.Fatal(err)
			}
			if !samePath(raw, want) {
				t.Fatalf("%s seed %d: memoised path differs from a fresh plan", w.name, seed)
			}
			for _, s := range []*KheperaSetup{miss, hit} {
				if !samePath(s.Path, plan.Resample(want, 0.1)) {
					t.Fatalf("%s seed %d: Khepera path differs from a fresh plan", w.name, seed)
				}
			}
			if !samePath(tamiya.Path, plan.Resample(want, 0.15)) {
				t.Fatalf("%s seed %d: Tamiya path differs from a fresh plan", w.name, seed)
			}
			for k := 0; k < 50; k++ {
				a, errA := miss.Sim.Step()
				b, errB := hit.Sim.Step()
				if errA != nil || errB != nil {
					t.Fatal(errA, errB)
				}
				if a.XTrue.Sub(b.XTrue).MaxAbs() != 0 || a.Readings["lidar"].Sub(b.Readings["lidar"]).MaxAbs() != 0 {
					t.Fatalf("%s seed %d k=%d: the simulator built on a hit diverged", w.name, seed, k)
				}
			}
		}
	}
}

// What a caller does with a path or a map after the call never reaches a
// later result.
func TestPlanMemoIsolatedFromCallers(t *testing.T) {
	const seed = 9201
	mission := LabMission()
	want := freshPlan(t, mission, seed)
	for i := 0; i < 2; i++ {
		path, err := planToGoal(mission, seed, stat.NewRNG(seed).Fork("planner"))
		if err != nil {
			t.Fatal(err)
		}
		if !samePath(path, want) {
			t.Fatalf("call %d: path differs from a fresh plan", i)
		}
		path[1].X += 1
	}
	clean := attack.CleanScenario()
	for i := 0; i < 2; i++ {
		setup, err := NewKhepera(mission, &clean, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !samePath(setup.Path, plan.Resample(want, 0.1)) {
			t.Fatalf("setup %d: path differs from a fresh plan", i)
		}
		setup.Path[1].Y += 1
	}

	mission.Map.AddObstacle(world.NewRect(2.1, 1.5, 2.6, 2.0)) // across the path
	edited := freshPlan(t, mission, seed)
	if samePath(edited, want) {
		t.Fatal("the added obstacle does not move the plan; pick another")
	}
	setup, err := NewKhepera(mission, &clean, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !samePath(setup.Path, plan.Resample(edited, 0.1)) {
		t.Fatal("a mission on the edited map got the path planned before the edit")
	}
}

func TestPlanMemoBounded(t *testing.T) {
	var m planMemo
	const extra = 40
	for i := 0; i < planMemoCap+extra; i++ {
		key := strconv.Itoa(i)
		m.put(key, []world.Point{{X: float64(i)}})
		m.put(key, []world.Point{{X: -1}}) // a racing twin's put keeps the first
		if len(m.paths) > planMemoCap {
			t.Fatalf("after %d puts the memo holds %d paths, cap %d", i+1, len(m.paths), planMemoCap)
		}
	}
	for i := 0; i < planMemoCap+extra; i++ {
		path, ok := m.get(strconv.Itoa(i))
		if evicted := i < extra; ok == evicted {
			t.Fatalf("key %d: held %v, want %v (the oldest go first)", i, ok, !evicted)
		}
		if ok && path[0].X != float64(i) {
			t.Fatalf("key %d: path %v", i, path)
		}
	}
}

func TestPlanMemoConcurrentCallers(t *testing.T) {
	const seed = 9301
	want := freshPlan(t, LabMission(), seed)
	clean := attack.CleanScenario()
	paths := make([][]world.Point, 8)
	var wg sync.WaitGroup
	for i := range paths {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if setup, err := NewKhepera(LabMission(), &clean, seed); err == nil {
					paths[i] = setup.Path
				}
			} else if setup, err := NewTamiya(LabMission(), &clean, seed); err == nil {
				paths[i] = setup.Path
			}
		}(i)
	}
	wg.Wait()
	for i, path := range paths {
		spacing := 0.1
		if i%2 == 1 {
			spacing = 0.15
		}
		if !samePath(path, plan.Resample(want, spacing)) {
			t.Fatalf("caller %d: path differs from a fresh plan", i)
		}
	}

	// A plan takes long enough for the race detector to forget the
	// callers' memo accesses, so also drive a memo through its eviction
	// with no plan in between: under -race, its lock keeps this quiet.
	var m planMemo
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*planMemoCap; i++ {
				key := strconv.Itoa(i + g*planMemoCap/2)
				m.put(key, []world.Point{{X: float64(i)}})
				m.get(key)
			}
		}(g)
	}
	wg.Wait()
	if len(m.paths) != planMemoCap {
		t.Fatalf("memo holds %d paths, want its cap %d", len(m.paths), planMemoCap)
	}
}
