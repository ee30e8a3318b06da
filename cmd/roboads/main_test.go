package main

import (
	"os"
	"strings"
	"testing"
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
