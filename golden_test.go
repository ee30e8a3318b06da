package roboads_test

// Golden digests: the whole canonical scenario suite stepped through
// fresh detectors, compared against digests recorded at a known-good
// commit. Every other equivalence check in the tree (remote ≡ local,
// recovered ≡ uninterrupted, bench/'s replay agreement) compares two runs of the *current* code; this is the one test that pins
// "the same bits as before" across a rewrite of core or mat.
//
// Re-record only for a change that is meant to move detector output
// (-update re-records the file of every golden test that runs, so name
// the test):
//
//	go test -run TestGoldenDigests -update .

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/fleet"
	"roboads/internal/plan"
	"roboads/internal/robot"
	"roboads/internal/scenario"
	"roboads/internal/sim"
	"roboads/internal/stat"
	"roboads/internal/world"
)

var updateGolden = flag.Bool("update", false, "re-record the testdata/ golden files of the tests that run")

const (
	goldenPath    = "testdata/golden_digests.json"
	planPathsPath = "testdata/plan_paths.json"
)

// goldenSeeds are the suite seeds pinned: the benchmark's documented
// default plus three small ones.
var goldenSeeds = []int64{42, 1, 2, 3}

// suiteMission is one scenario of a suite with its simulator stepped to
// completion and no detector attached: the frames any number of fresh
// detectors can then replay.
type suiteMission struct {
	name string
	prof robot.Profile
	recs []*sim.StepRecord
}

// generateSuite generates every mission of scenario.Default(seed) with
// the scenario runner's own construction (scenario.Frames), so a detector
// built from the mission's profile sees exactly the frames RunSuite would
// feed it.
func generateSuite(seed int64) ([]*suiteMission, error) {
	suite, err := scenario.Default(seed)
	if err != nil {
		return nil, err
	}
	missions := make([]*suiteMission, 0, len(suite.Scenarios))
	for i := range suite.Scenarios {
		sc := &suite.Scenarios[i]
		prof, recs, err := scenario.Frames(sc, suite.Seed)
		if err != nil {
			return nil, err
		}
		missions = append(missions, &suiteMission{name: sc.Name, prof: prof, recs: recs})
	}
	return missions, nil
}

// replayDigest steps the mission's frames through a fresh detector and
// returns the FNV-1a digest of every report's wire JSON (float64 survives
// encoding/json exactly, so equal digests mean bit-equal reports).
func (m *suiteMission) replayDigest() (string, error) {
	det, err := m.prof.NewDetector(core.DefaultEngineConfig(), detect.DefaultConfig())
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, rec := range m.recs {
		rep, err := det.Step(rec.UPlanned, rec.Readings)
		if err != nil {
			return "", fmt.Errorf("k=%d: %w", rec.K, err)
		}
		if err := enc.Encode(fleet.NewWireReport(rep)); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%d:%016x", len(m.recs), h.Sum64()), nil
}

// readGolden loads a recorded name → digest file, or returns an empty map
// to fill when re-recording.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	golden := map[string]string{}
	if *updateGolden {
		return golden
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update at a known-good commit)", err)
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	return golden
}

// writeGolden records a name → digest file.
func writeGolden(t *testing.T, path string, golden map[string]string) {
	t.Helper()
	raw, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenDigests(t *testing.T) {
	golden := readGolden(t, goldenPath)
	checked := 0
	for _, seed := range goldenSeeds {
		missions, err := generateSuite(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range missions {
			key := fmt.Sprintf("seed%d/%s", seed, m.name)
			got, err := m.replayDigest()
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			checked++
			if *updateGolden {
				golden[key] = got
				continue
			}
			want, ok := golden[key]
			if !ok {
				t.Errorf("%s: no recorded digest", key)
			} else if got != want {
				t.Errorf("%s: digest %s, recorded %s", key, got, want)
			}
		}
	}
	if *updateGolden {
		writeGolden(t, goldenPath, golden)
		return
	}
	if checked != len(golden) {
		t.Errorf("checked %d missions, %d recorded", checked, len(golden))
	}
}

// TestGoldenPlanPaths pins the planner alone: the waypoints plan.Plan
// returns for the two missions the suites drive, at the golden seeds and
// the default configuration, as an FNV-1a digest of their float64 bits. A
// planner change that is meant to be an optimisation passes it unchanged;
// TestGoldenDigests would catch a moved path too, but only through 26
// missions of simulation, and not which of planner and detector moved.
func TestGoldenPlanPaths(t *testing.T) {
	lab := sim.LabMission()
	missions := []struct {
		name        string
		m           *world.Map
		start, goal world.Point
	}{
		{"lab", lab.Map, lab.Start, lab.Goal},
		// The warehouse mission of scenario.Default's suites.
		{"warehouse", world.WarehouseArena(), world.Point{X: 0.6, Y: 0.6}, world.Point{X: 7.2, Y: 5.4}},
	}
	golden := readGolden(t, planPathsPath)
	checked := 0
	for _, mi := range missions {
		for _, seed := range goldenSeeds {
			key := fmt.Sprintf("%s/seed%d", mi.name, seed)
			path, err := plan.Plan(mi.m, mi.start, mi.goal, plan.DefaultConfig(), stat.NewRNG(seed))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			h := fnv.New64a()
			var buf [16]byte
			for _, p := range path {
				binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.X))
				binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
				h.Write(buf[:])
			}
			got := fmt.Sprintf("%d:%016x", len(path), h.Sum64())
			checked++
			if *updateGolden {
				golden[key] = got
				continue
			}
			want, ok := golden[key]
			if !ok {
				t.Errorf("%s: no recorded digest", key)
			} else if got != want {
				t.Errorf("%s: digest %s, recorded %s", key, got, want)
			}
		}
	}
	if *updateGolden {
		writeGolden(t, planPathsPath, golden)
		return
	}
	if checked != len(golden) {
		t.Errorf("checked %d paths, %d recorded", checked, len(golden))
	}
}
