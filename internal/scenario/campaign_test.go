package scenario_test

import (
	"sort"
	"strings"
	"testing"

	"roboads/internal/metrics"
	"roboads/internal/scenario"
)

// The coordinated campaign's sensor false positives come from the mode
// selector, not from the accounting. At seed 42, one trial, the row
// counts 76 false positives against 60 true negatives (all 60 before the
// first attack lands at k = 60, so sensor FPR is 76/136 = 55.88%). 74 of
// the 76 fall while the selected mode's reference is the attacked wheel
// encoder: the wheel-controller bias lands at k = 180, at k = 182 the
// engine selects ref=wheel-encoder and keeps it until k = 255, and the
// detector names {ips, lidar} against the truth {ips, wheel-encoder}. The
// other two are one-iteration lags with a clean reference: at the IPS
// onset (k = 120, still naming the encoder alone) and at the switch back
// to ref=lidar (k = 256). See EXPERIMENTS.md, "Why coordinated-campaign's
// sensor FPR is high".
func TestCoordinatedCampaignFalsePositives(t *testing.T) {
	s, err := scenario.Default(42)
	if err != nil {
		t.Fatal(err)
	}
	var sc *scenario.Scenario
	for i := range s.Scenarios {
		if s.Scenarios[i].Name == "coordinated-campaign" {
			sc = &s.Scenarios[i]
		}
	}
	if sc == nil {
		t.Fatal("no coordinated-campaign scenario in the default suite")
	}
	one := *s
	one.Scenarios = []scenario.Scenario{*sc}
	suite, err := scenario.RunSuite(&one, scenario.RunConfig{Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	row := suite.Results[0].SensorConfusion
	if row.FP != 76 || row.TN != 60 {
		t.Fatalf("row confusion %+v, want FP 76 and TN 60", row)
	}

	// Replay the trial's frames and classify each false positive by the
	// truth set, the named set and whether the selected mode's reference
	// is under attack, with the row's own rule (Run.SensorConfusion).
	type class struct {
		truth, named string
		refAttacked  bool
	}
	type span struct{ count, first, last int }
	got := make(map[class]span)
	prof, recs, err := scenario.Frames(sc, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	det, err := scenario.DefaultDetector(prof)
	if err != nil {
		t.Fatal(err)
	}
	var c metrics.Confusion
	for _, rec := range recs {
		rep, err := det.Step(rec.UPlanned, rec.Readings)
		if err != nil {
			t.Fatalf("k=%d: %v", rec.K, err)
		}
		var truth []string
		for name, on := range rec.Truth.CorruptedSensors {
			if on {
				truth = append(truth, name)
			}
		}
		sort.Strings(truth)
		named := rep.Decision.Condition.Sensors
		alarm := rep.Decision.SensorAlarm && len(named) > 0
		correct := alarm && strings.Join(truth, ",") == strings.Join(named, ",")
		c.Add(len(truth) > 0, alarm, correct)
		if !alarm || correct {
			continue
		}
		cl := class{truth: strings.Join(truth, ","), named: strings.Join(named, ",")}
		for _, ref := range rep.Engine.SelectedMode.ReferenceNames {
			cl.refAttacked = cl.refAttacked || rec.Truth.CorruptedSensors[ref]
		}
		sp, seen := got[cl]
		if !seen {
			sp.first = rec.K
		}
		sp.count, sp.last = sp.count+1, rec.K
		got[cl] = sp
	}
	if c != row {
		t.Fatalf("replayed confusion %+v, the row's %+v", c, row)
	}
	want := map[class]span{
		{"ips,wheel-encoder", "ips,lidar", true}:      {73, 183, 255},
		{"ips,wheel-encoder", "ips", true}:            {1, 182, 182},
		{"ips,wheel-encoder", "ips", false}:           {1, 256, 256},
		{"ips,wheel-encoder", "wheel-encoder", false}: {1, 120, 120},
	}
	if len(got) != len(want) {
		t.Fatalf("false positives by class %+v, want %+v", got, want)
	}
	for cl, sp := range want {
		if got[cl] != sp {
			t.Fatalf("class %+v: %+v, want %+v (all: %+v)", cl, got[cl], sp, got)
		}
	}
}
