package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// testState builds a small but fully populated detector state literal —
// the codec does not interpret it, only round-trips it.
func testState() *detect.State {
	return &detect.State{
		Engine: &core.EngineState{
			K:        41,
			Selected: 1,
			Weights:  []float64{0.25, 0.75},
			X:        []float64{1.5, -2.25, 0.0078125},
			Px:       []float64{1, 0, 0, 0, 1, 0, 0, 0, 1},
			Modes: []core.ModeBelief{
				{Name: "nominal", X: []float64{1, 2, 3}, Px: []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}},
				{Name: "gps", X: []float64{4, 5, 6}, Px: []float64{2, 0, 0, 0, 2, 0, 0, 0, 2}},
			},
			ConfigHash: 0xdeadbeef,
		},
		Decider: &detect.DeciderState{
			Sensor:     detect.WindowState{Size: 10, Criteria: 5, Outcomes: []bool{true, false, true}},
			Actuator:   detect.WindowState{Size: 14, Criteria: 10, Outcomes: []bool{true, true}},
			PerSensor:  map[string]detect.WindowState{"gps": {Size: 10, Criteria: 5, Outcomes: []bool{false, true}}},
			ConfigHash: 0xfeedface,
		},
	}
}

func testSnapshot(frames int) *Snapshot {
	return &Snapshot{
		SessionID:     "sess-1",
		Robot:         "khepera",
		Sensors:       []string{"gps", "imu"},
		Dt:            0.02,
		FramesApplied: frames,
		State:         testState(),
	}
}

func testFrame(k int) *trace.Frame {
	return &trace.Frame{
		K:        k,
		TNanos:   int64(k) * 20_000_000,
		U:        []float64{0.1 * float64(k), -0.2},
		Readings: map[string][]float64{"gps": {1.25, 2.5}, "imu": {0.75}},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := testSnapshot(41)
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.SessionID != snap.SessionID || got.Robot != snap.Robot ||
		got.Dt != snap.Dt || got.FramesApplied != snap.FramesApplied {
		t.Fatalf("identity fields changed: %+v", got)
	}
	if got.State.Engine.K != 41 || len(got.State.Engine.Modes) != 2 {
		t.Fatalf("engine state changed: %+v", got.State.Engine)
	}
	if got.State.Engine.Modes[1].Px[0] != 2 {
		t.Fatalf("mode covariance changed")
	}
	if got.State.Decider.Sensor.Outcomes[0] != true || got.State.Decider.PerSensor["gps"].Size != 10 {
		t.Fatalf("decider state changed: %+v", got.State.Decider)
	}
	// Re-encoding a decoded snapshot must be byte-identical: the codec
	// is deterministic, so snapshots can be compared as raw bytes.
	again, err := EncodeSnapshot(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoded snapshot differs")
	}
}

func TestDecodeSnapshotTruncated(t *testing.T) {
	data, err := EncodeSnapshot(testSnapshot(7))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := DecodeSnapshot(data[:cut]); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncation at %d: got %v, want ErrSnapshotCorrupt", cut, err)
		}
	}
}

func TestDecodeSnapshotBitFlips(t *testing.T) {
	data, err := EncodeSnapshot(testSnapshot(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i += 3 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
	}
}

func TestDecodeSnapshotVersionSkew(t *testing.T) {
	data, err := EncodeSnapshot(testSnapshot(7))
	if err != nil {
		t.Fatal(err)
	}
	data[6], data[7] = 2, 0 // version 2 little-endian
	if _, err := DecodeSnapshot(data); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("version skew: got %v, want ErrSnapshotVersion", err)
	}
}

// TestReadWALTailStopsAtCorruption: the log decoder yields the intact
// prefix of a byte stream and stops at the first torn or corrupt record,
// wherever it is — nothing after a bad record is ever picked up.
func TestReadWALTailStopsAtCorruption(t *testing.T) {
	var good []byte
	var ends []int
	for seq := 1; seq <= 5; seq++ {
		var err error
		if good, err = appendRecord(good, "s-1", seq, testFrame(seq-1)); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(good))
	}
	count := func(data []byte) (records, valid int) {
		valid = scanLog(data, func(_, _ int, id []byte, seq int, _ []byte) {
			if string(id) != "s-1" || seq != records+1 {
				t.Fatalf("record %d decoded as %s/%d", records+1, id, seq)
			}
			records++
		})
		return records, valid
	}
	if n, valid := count(good); n != 5 || valid != len(good) {
		t.Fatalf("clean log: %d records, %d of %d bytes", n, valid, len(good))
	}
	// Torn final record.
	if n, valid := count(good[:len(good)-9]); n != 4 || valid != ends[3] {
		t.Fatalf("torn tail: %d records, prefix %d (want 4, %d)", n, valid, ends[3])
	}
	// A flipped bit in the third record hides the intact fourth and fifth.
	mut := append([]byte(nil), good...)
	mut[ends[1]+12] ^= 0x10
	if n, valid := count(mut); n != 2 || valid != ends[1] {
		t.Fatalf("corrupt middle: %d records, prefix %d (want 2, %d)", n, valid, ends[1])
	}
}

func TestSessionStoreLifecycle(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	st, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := st.Create("sess-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Append(testFrame(0)); err == nil {
		t.Fatalf("append before first snapshot should fail")
	}
	if _, err := ss.WriteSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if err := ss.Append(testFrame(k)); err != nil {
			t.Fatalf("append %d: %v", k, err)
		}
	}
	if ss.Applied() != 5 {
		t.Fatalf("applied=%d, want 5", ss.Applied())
	}
	if err := ss.Commit(5); err != nil {
		t.Fatal(err)
	}
	// Second checkpoint at k=5 supersedes the first and compacts.
	if _, err := ss.WriteSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	for k := 5; k < 8; k++ {
		if err := ss.Append(testFrame(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.Commit(3); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(filepath.Join(dir, "sess-1"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != snapshotName(5) {
		t.Fatalf("compaction left %v, want exactly the newest snapshot", names)
	}

	// Recovery — by a fresh store, as after a restart — sees snapshot-5
	// plus three replayable frames.
	if st, err = Open(dir, Options{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	rs, snap, frames, err := st.Recover("sess-1")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if snap.FramesApplied != 5 || len(frames) != 3 || rs.Applied() != 8 {
		t.Fatalf("recover: base=%d frames=%d applied=%d", snap.FramesApplied, len(frames), rs.Applied())
	}
	if frames[0].K != 5 || frames[2].K != 7 {
		t.Fatalf("recovered frames out of order: %v..%v", frames[0].K, frames[2].K)
	}
	// The recovered store continues the sequence.
	if err := rs.Append(testFrame(8)); err != nil {
		t.Fatal(err)
	}
	if err := rs.Commit(1); err != nil {
		t.Fatal(err)
	}

	if reg.HistogramCount(MetricSnapshotBytes) != 2 {
		t.Fatalf("snapshot histogram count %d, want 2", reg.HistogramCount(MetricSnapshotBytes))
	}
	if reg.CounterValue(MetricWALAppends) != 9 {
		t.Fatalf("append counter %d, want 9", reg.CounterValue(MetricWALAppends))
	}
	// Every sync of the log is counted: one per commit that had records to
	// sync, none per append or snapshot.
	if reg.CounterValue(MetricWALFsyncs) != 3 {
		t.Fatalf("fsync counter %d, want 3 (one per commit)", reg.CounterValue(MetricWALFsyncs))
	}
}

// logFiles lists the store's segment files, oldest first.
func logFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "log-????????????????"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := st.Create("s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.WriteSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if err := ss.Append(testFrame(k)); err != nil {
			t.Fatal(err)
		}
	}
	ss.Close()

	// Simulate a crash mid-append: chop bytes off the final record.
	logPath := logFiles(t, dir)[0]
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-11], 0o644); err != nil {
		t.Fatal(err)
	}

	if st, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	rs, snap, frames, err := st.Recover("s")
	if err != nil {
		t.Fatal(err)
	}
	if snap.FramesApplied != 0 || len(frames) != 3 || rs.Applied() != 3 {
		t.Fatalf("recover after tear: base=%d frames=%d applied=%d", snap.FramesApplied, len(frames), rs.Applied())
	}
	// The torn bytes were physically removed: the next append extends
	// the valid prefix, and a second recovery sees all four frames.
	if err := rs.Append(testFrame(3)); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	if st, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	rs2, _, frames2, err := st.Recover("s")
	if err != nil {
		t.Fatal(err)
	}
	defer rs2.Close()
	if len(frames2) != 4 || frames2[3].K != 3 {
		t.Fatalf("post-tear append not recoverable: %d frames", len(frames2))
	}
}

func TestRecoverFallsBackToOlderSnapshot(t *testing.T) {
	root := t.TempDir()
	st, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := st.Create("s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.WriteSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if err := ss.Append(testFrame(k)); err != nil {
			t.Fatal(err)
		}
	}
	ss.Close()

	// Plant a corrupt higher-numbered snapshot (as if compaction and the
	// rename raced a crash in some hostile way). Recovery must fall back
	// to snapshot-0 and its records. The index is huge on purpose: the
	// loader tries the snapshots that exist, not every integer below the
	// newest (ReplicaRead's copy of it used to, a million failed opens).
	dir := filepath.Join(root, "s")
	if err := os.WriteFile(filepath.Join(dir, snapshotName(1_000_000_000)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	raw, snap, err := loadSnapshot(dir)
	if err != nil || snap.FramesApplied != 0 {
		t.Fatalf("loader: %v, snapshot %+v", err, snap)
	}
	if onDisk, _ := os.ReadFile(filepath.Join(dir, snapshotName(0))); !bytes.Equal(raw, onDisk) {
		t.Fatal("loader's raw envelope is not the file it decoded")
	}
	rs, snap, frames, err := st.Recover("s")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if snap.FramesApplied != 0 || len(frames) != 2 {
		t.Fatalf("fallback recovery: base=%d frames=%d", snap.FramesApplied, len(frames))
	}
	batch, err := st.ReplicaRead("s", -1)
	if err != nil || batch.Base != 0 || len(batch.Frames) != 2 || !bytes.Equal(batch.Snapshot, raw) {
		t.Fatalf("replica read past a corrupt newest snapshot: %v, %+v", err, batch)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("falling back from snapshot-1000000000 took %v", took)
	}
}

func TestRecoverNoSnapshot(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("unborn"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.Recover("unborn"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("got %v, want ErrNoSnapshot", err)
	}
}

func TestStoreSessionsAndRemove(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"b", "a"} {
		if _, err := st.Create(id); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := st.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("sessions %v", ids)
	}
	if err := st.Remove("a"); err != nil {
		t.Fatal(err)
	}
	ids, _ = st.Sessions()
	if len(ids) != 1 || ids[0] != "b" {
		t.Fatalf("after remove: %v", ids)
	}
	// Path traversal in session IDs is rejected.
	for _, bad := range []string{"", "..", "a/b", ".hidden"} {
		if _, err := st.Create(bad); err == nil {
			t.Fatalf("id %q accepted", bad)
		}
	}
}

func TestSnapshotRejectsForeignFiles(t *testing.T) {
	for _, input := range [][]byte{
		nil,
		[]byte("{}"),
		[]byte(strings.Repeat("x", 64)),
		[]byte("RBSNAP"),
	} {
		if _, err := DecodeSnapshot(input); err == nil {
			t.Fatalf("input %q decoded", input)
		}
	}
}
