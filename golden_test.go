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
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/eval"
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
	goldenPath      = "testdata/golden_digests.json"
	planPathsPath   = "testdata/plan_paths.json"
	evalOutputsPath = "testdata/eval_outputs.json"
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

// checkGolden compares name → digest results with the file at path, or
// re-records the file under -update.
func checkGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update at a known-good commit)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for key, digest := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no recorded digest", key)
		} else if digest != w {
			t.Errorf("%s: digest %s, recorded %s", key, digest, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("checked %d, %d recorded", len(got), len(want))
	}
}

func TestGoldenDigests(t *testing.T) {
	got := map[string]string{}
	for _, seed := range goldenSeeds {
		missions, err := generateSuite(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range missions {
			key := fmt.Sprintf("seed%d/%s", seed, m.name)
			digest, err := m.replayDigest()
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got[key] = digest
		}
	}
	checkGolden(t, goldenPath, got)
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
	got := map[string]string{}
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
			got[key] = fmt.Sprintf("%d:%016x", len(path), h.Sum64())
		}
	}
	checkGolden(t, planPathsPath, got)
}

// outputDigest renders an evaluation result and returns its text's length
// and FNV-1a digest.
func outputDigest[R interface{ Write(io.Writer) }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	r.Write(&buf)
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%d:%016x", buf.Len(), h.Sum64()), nil
}

// TestGoldenEvalOutputs pins the rendered text of every evaluation entry
// point and of the default suite's leaderboard at seed 42, one trial: the
// tables, figures and sweeps of §V all go through the one mission runner,
// so a change to the runner or its accounting that moves any printed
// number fails here. suite-10 is the same leaderboard over ten trials
// with its bootstrap intervals, the judge of a detection number (DESIGN.md
// §15): a change that moves it on purpose shows its rows against the
// parent's intervals before it re-records.
func TestGoldenEvalOutputs(t *testing.T) {
	const seed = 42
	runs, err := eval.Fig7Workload(1, seed)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := scenario.Default(seed)
	if err != nil {
		t.Fatal(err)
	}
	outputs := map[string]func() (string, error){
		"table2":     func() (string, error) { return outputDigest(eval.Table2(1, seed)) },
		"table4":     func() (string, error) { return outputDigest(eval.Table4(seed)) },
		"fig6":       func() (string, error) { return outputDigest(eval.Fig6(seed)) },
		"fig7-roc-s": func() (string, error) { return outputDigest(eval.Fig7ROC(runs, true)) },
		"fig7-roc-a": func() (string, error) { return outputDigest(eval.Fig7ROC(runs, false)) },
		"fig7-f1-s":  func() (string, error) { return outputDigest(eval.Fig7F1(runs, true)) },
		"fig7-f1-a":  func() (string, error) { return outputDigest(eval.Fig7F1(runs, false)) },
		"tamiya":     func() (string, error) { return outputDigest(eval.Tamiya(1, seed)) },
		"linear":     func() (string, error) { return outputDigest(eval.LinearBench(1, seed)) },
		"related":    func() (string, error) { return outputDigest(eval.RelatedWork(1, seed)) },
		"evasive":    func() (string, error) { return outputDigest(eval.Evasive(seed)) },
		"quality":    func() (string, error) { return outputDigest(eval.SensorQuality(seed)) },
		"suite":      func() (string, error) { return outputDigest(scenario.RunSuite(suite, scenario.RunConfig{})) },
		"suite-10": func() (string, error) {
			return outputDigest(scenario.RunSuite(suite, scenario.RunConfig{Trials: 10, Workers: 2}))
		},
	}
	got := map[string]string{}
	for name, render := range outputs {
		digest, err := render()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = digest
	}
	checkGolden(t, evalOutputsPath, got)
}
