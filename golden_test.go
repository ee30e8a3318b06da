package roboads_test

// Golden digests: the whole canonical scenario suite stepped through
// fresh detectors, compared against digests recorded at a known-good
// commit. Every other equivalence check in the tree (batched ≡ scalar,
// parallel ≡ sequential, remote ≡ local, bench/'s replay agreement)
// compares two runs of the *current* code; this is the one test that pins
// "the same bits as before" across a rewrite of core or mat.
//
// Re-record only for a change that is meant to move detector output:
//
//	go test -run TestGoldenDigests -update .

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/fleet"
	"roboads/internal/robot"
	"roboads/internal/scenario"
	"roboads/internal/sim"
)

var updateGolden = flag.Bool("update", false, "re-record testdata/golden_digests.json")

const goldenPath = "testdata/golden_digests.json"

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
func (m *suiteMission) replayDigest(workers int) (string, error) {
	ecfg := core.DefaultEngineConfig()
	ecfg.Workers = workers
	det, err := m.prof.NewDetector(ecfg, detect.DefaultConfig())
	if err != nil {
		return "", err
	}
	defer det.Close()
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

func TestGoldenDigests(t *testing.T) {
	golden := map[string]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (record with -update at a known-good commit)", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	checked := 0
	for _, seed := range goldenSeeds {
		missions, err := generateSuite(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range missions {
			key := fmt.Sprintf("seed%d/%s", seed, m.name)
			// Sequential and fanned-out mode banks must both land on the
			// recorded bits.
			for _, workers := range []int{-1, 2} {
				got, err := m.replayDigest(workers)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", key, workers, err)
				}
				if *updateGolden {
					if prev, ok := golden[key]; ok && prev != got {
						t.Fatalf("%s: workers=%d digest %s differs from %s", key, workers, got, prev)
					}
					golden[key] = got
					continue
				}
				want, ok := golden[key]
				if !ok {
					t.Errorf("%s: no recorded digest", key)
				} else if got != want {
					t.Errorf("%s workers=%d: digest %s, recorded %s", key, workers, got, want)
				}
			}
			checked++
		}
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if checked != len(golden) {
		t.Errorf("checked %d missions, %d recorded", checked, len(golden))
	}
}
