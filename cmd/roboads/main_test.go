package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"roboads/internal/scenario"
)

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	err := run([]string{"frobnicate"})
	if err == nil || !strings.Contains(err.Error(), "frobnicate") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"table2", "-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunScenarioBounds(t *testing.T) {
	if err := run([]string{"run", "-scenario", "99"}); err == nil {
		t.Fatal("out-of-range scenario accepted")
	}
}

func TestRunFig7BadPlot(t *testing.T) {
	if err := run([]string{"fig7", "-plot", "z"}); err == nil {
		t.Fatal("bad plot letter accepted")
	}
}

func TestRunTable3(t *testing.T) {
	// Static output, no simulation involved.
	if err := run([]string{"table3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("mission run in -short mode")
	}
	if err := run([]string{"run", "-scenario", "3", "-seed", "42"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCleanScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("mission run in -short mode")
	}
	if err := run([]string{"run", "-scenario", "0", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("mission run in -short mode")
	}
	path := t.TempDir() + "/trace.jsonl"
	if err := run([]string{"record", "-scenario", "0", "-seed", "7", "-o", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"replay", "-i", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordBadScenario(t *testing.T) {
	if err := run([]string{"record", "-scenario", "55"}); err == nil {
		t.Fatal("bad scenario accepted")
	}
}

func TestReplayMissingFile(t *testing.T) {
	if err := run([]string{"replay", "-i", "/nonexistent/trace.jsonl"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunReportWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if err := run([]string{"report", "-o", "/dev/full"}); err == nil {
		t.Fatal("report into a full device succeeded")
	}
}

// wallLine matches scenario run's one timing-dependent line.
var wallLine = regexp.MustCompile(`(?m)^wall: .*\n`)

// A suite written by scenario gen and read back by run -i flies the same
// missions as the default suite generated in process: the two
// leaderboards, bootstrap intervals included, differ in the wall line
// alone.
func TestScenarioRunFromFile(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run in -short mode")
	}
	path := t.TempDir() + "/suite.json"
	if err := scenarioCmd(io.Discard, []string{"gen", "-seed", "42", "-o", path}); err != nil {
		t.Fatal(err)
	}
	var fromFile, inProcess bytes.Buffer
	if err := scenarioCmd(&fromFile, []string{"run", "-i", path, "-trials", "2", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := scenarioCmd(&inProcess, []string{"run", "-seed", "42", "-trials", "2", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	got, want := wallLine.ReplaceAllString(fromFile.String(), ""), wallLine.ReplaceAllString(inProcess.String(), "")
	if got != want {
		t.Fatalf("run -i differs from the generated suite's run:\n%s\nwant\n%s", got, want)
	}
	if !strings.Contains(got, "bootstrap intervals") || !strings.HasPrefix(got, `suite "default"  seed=42  trials=2`) {
		t.Fatalf("unexpected leaderboard:\n%s", got)
	}
}

// The leaderboard record's flags went with the record.
func TestScenarioRunRemovedFlags(t *testing.T) {
	for _, flag := range []string{"-out", "-label"} {
		if err := run([]string{"scenario", "run", flag, "x"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("scenario run %s x: %v, want an unknown-flag error", flag, err)
		}
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("device full") }

// scenario run reports a failed write of its leaderboard, as every
// evaluation command does.
func TestScenarioRunWriteError(t *testing.T) {
	s := scenario.Suite{Version: scenario.Version, Name: "tiny", Seed: 1,
		Scenarios: []scenario.Scenario{{Name: "clean", Robot: "khepera", Iterations: 20}}}
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/tiny.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := scenarioCmd(failWriter{}, []string{"run", "-i", path}); err == nil {
		t.Fatal("scenario run into a failing writer succeeded")
	}
}
