package store

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// copyDir copies a state directory as a crash would freeze it.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// appendWritten appends frame to ss and writes its record to the log
// unsynced: what a crash finds of a job whose commit had not completed.
func appendWritten(t *testing.T, ss *SessionStore, frame *trace.Frame) {
	t.Helper()
	if err := ss.Append(frame); err != nil {
		t.Fatal(err)
	}
	if err := ss.write(); err != nil {
		t.Fatal(err)
	}
}

// logEnd returns the LSN the next append lands at.
func (st *Store) logEnd() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cursor
}

// sessionFrame is the k-th frame (0-based) of test session i: distinct
// per session, so a record replayed into the wrong session shows.
func sessionFrame(i, k int) *trace.Frame {
	f := testFrame(k)
	f.U[1] = float64(i)
	return f
}

// crashRig is the state the crash-point tests damage: four sessions with
// interleaved appends across several (tiny) segments, a checkpoint
// mid-stream, a synced prefix, and a tail of unsynced records.
type crashRig struct {
	dir      string
	acked    [4]int   // frames per session covered by the last sync
	appended [4]int   // frames per session written at all
	tail     []recPos // the last records of the log, oldest first
	segments []string // segment files, oldest first
	starts   []int64  // their start LSNs
	all      [4][]recPos
}

const crashTail = 8

func newCrashRig(t *testing.T) *crashRig {
	t.Helper()
	rig := &crashRig{dir: t.TempDir()}
	st, err := Open(rig.dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.segmentSize = 2048 // a handful of records: rotation happens mid-stream
	var stores [4]*SessionStore
	for i := range stores {
		stores[i] = openSession(t, st, fmt.Sprintf("s-%d", i), 0)
	}
	appendRound := func(n int) {
		for k := 0; k < n; k++ {
			for i, ss := range stores {
				if i == 3 && k%2 == 1 {
					continue // uneven interleaving
				}
				appendWritten(t, ss, sessionFrame(i, ss.Applied()))
				rig.appended[i] = ss.Applied()
			}
		}
	}
	appendRound(12)
	snap := testSnapshot(0)
	if _, err := stores[1].WriteSnapshot(snap); err != nil { // one session rests on a later snapshot
		t.Fatal(err)
	}
	appendRound(8)
	if err := stores[0].Commit(0); err != nil { // its sync covers everyone's records so far
		t.Fatal(err)
	}
	rig.acked = rig.appended
	// An unsynced tail of at least 11 records, extended until its last 8 —
	// the ones the truncation sweep cuts through — lie in the final segment
	// (a rotation syncs the segment it finishes, so a real crash tears only
	// the last one).
	for rounds := 0; ; rounds++ {
		appendRound(1)
		rig.segments, rig.starts = nil, nil
		st.mu.Lock()
		for i := range stores {
			rig.all[i] = append([]recPos(nil), st.sessions[stores[i].id].recs...)
		}
		for _, seg := range st.segs {
			rig.segments = append(rig.segments, st.segmentPath(seg.start))
			rig.starts = append(rig.starts, seg.start)
		}
		st.mu.Unlock()
		var order []recPos // the log's records in LSN order
		for i := range rig.all {
			order = append(order, rig.all[i]...)
		}
		sort.Slice(order, func(i, j int) bool { return order[i].lsn < order[j].lsn })
		rig.tail = order[len(order)-crashTail:]
		if rounds >= 2 && rig.tail[0].lsn >= rig.starts[len(rig.starts)-1] {
			break
		}
	}
	if len(rig.segments) < 3 {
		t.Fatalf("only %d segments: the rig must rotate mid-stream", len(rig.segments))
	}
	return rig
}

// segmentOf returns the index of the segment holding lsn.
func (rig *crashRig) segmentOf(lsn int64) int {
	k := len(rig.starts) - 1
	for k > 0 && rig.starts[k] > lsn {
		k--
	}
	return k
}

// check opens a damaged copy and holds it to the contract: every session
// recovers a contiguous prefix of what it appended — its own frames, in
// order — at least minApplied and at most what was written; then appends
// continue and survive another reopen (the report-continuation half: the
// recovered frames are bit for bit the ones logged, and the log goes on
// from the cut). It returns the metrics registry of the first open.
func (rig *crashRig) check(t *testing.T, dir string, minApplied [4]int, what string) *telemetry.Registry {
	t.Helper()
	reg := telemetry.NewRegistry()
	st, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatalf("%s: open: %v", what, err)
	}
	var recovered [4]int
	var stores [4]*SessionStore
	for i := range stores {
		id := fmt.Sprintf("s-%d", i)
		ss, snap, frames, err := st.Recover(id)
		if err != nil {
			t.Fatalf("%s: recover %s: %v", what, id, err)
		}
		stores[i] = ss
		recovered[i] = snap.FramesApplied + len(frames)
		if recovered[i] < minApplied[i] || recovered[i] > rig.appended[i] {
			t.Fatalf("%s: %s recovered %d frames, want %d..%d", what, id, recovered[i], minApplied[i], rig.appended[i])
		}
		for j, fr := range frames {
			if want := sessionFrame(i, snap.FramesApplied+j); !reflect.DeepEqual(fr, want) {
				t.Fatalf("%s: %s frame %d is not the frame logged there", what, id, snap.FramesApplied+j)
			}
		}
	}
	// The log continues from the cut: two more frames each, then a restart.
	for i, ss := range stores {
		for k := 0; k < 2; k++ {
			if err := ss.Append(sessionFrame(i, ss.Applied())); err != nil {
				t.Fatalf("%s: append after recovery: %v", what, err)
			}
		}
		ss.Close()
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("%s: second open: %v", what, err)
	}
	for i := range stores {
		id := fmt.Sprintf("s-%d", i)
		_, snap, frames, err := st2.Recover(id)
		if err != nil {
			t.Fatalf("%s: second recover %s: %v", what, id, err)
		}
		if got := snap.FramesApplied + len(frames); got != recovered[i]+2 {
			t.Fatalf("%s: %s has %d frames after appending 2 to %d", what, id, got, recovered[i])
		}
		for j, fr := range frames {
			if !reflect.DeepEqual(fr, sessionFrame(i, snap.FramesApplied+j)) {
				t.Fatalf("%s: %s frame %d changed across the second recovery", what, id, snap.FramesApplied+j)
			}
		}
	}
	return reg
}

// TestCrashPointTruncation: the log cut at every byte offset of its last
// records — every way a crash can tear the unsynced tail.
func TestCrashPointTruncation(t *testing.T) {
	rig := newCrashRig(t)
	last := len(rig.segments) - 1
	lo := rig.tail[0].lsn - rig.starts[last]
	hi := rig.tail[crashTail-1].lsn + int64(rig.tail[crashTail-1].n) - rig.starts[last]
	for cut := lo; cut <= hi; cut++ {
		dir := copyDir(t, rig.dir)
		if err := os.Truncate(filepath.Join(dir, filepath.Base(rig.segments[last])), cut); err != nil {
			t.Fatal(err)
		}
		reg := rig.check(t, dir, rig.acked, fmt.Sprintf("cut at %d", cut))
		if n := reg.CounterValue(MetricLogCorrupt); n != 0 {
			t.Fatalf("cut at %d: a torn tail was reported as corruption", cut)
		}
	}
}

// TestCrashPointBitFlips: one flipped bit in each record of the log. The
// log ends at the damaged record — never skips over it — so every
// session keeps a contiguous prefix; when the record was in the unsynced
// tail nothing acknowledged is lost, and when it was in a segment that is
// not the last the damage is reported.
func TestCrashPointBitFlips(t *testing.T) {
	rig := newCrashRig(t)
	last := len(rig.segments) - 1
	flips, loud := 0, 0
	for i := range rig.all {
		for j, rec := range rig.all[i] {
			k := rig.segmentOf(rec.lsn)
			dir := copyDir(t, rig.dir)
			path := filepath.Join(dir, filepath.Base(rig.segments[k]))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[rec.lsn-rig.starts[k]+int64(j*7%int(rec.n))] ^= 1 << (j % 8)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			// What must survive: each session's records wholly before the
			// damaged one, capped at what had been synced.
			var min [4]int
			for s := range rig.all {
				base := rig.appended[s] - len(rig.all[s])
				n := 0
				for n < len(rig.all[s]) && rig.all[s][n].lsn < rec.lsn {
					n++
				}
				min[s] = base + n
				if min[s] > rig.acked[s] {
					min[s] = rig.acked[s]
				}
			}
			reg := rig.check(t, dir, min, fmt.Sprintf("flip in record %d of s-%d", j, i))
			flips++
			if k < last {
				loud++
				if reg.CounterValue(MetricLogCorrupt) != 1 {
					t.Fatalf("damage in segment %d of %d was not reported", k, last+1)
				}
				orphans, _ := filepath.Glob(filepath.Join(dir, "log-*.orphan"))
				if len(orphans) != last-k {
					t.Fatalf("damage in segment %d of %d set %d segments aside, want %d", k, last+1, len(orphans), last-k)
				}
			} else if reg.CounterValue(MetricLogCorrupt) != 0 {
				t.Fatalf("damage in the last segment reported as mid-log corruption")
			}
		}
	}
	if loud == 0 || loud == flips {
		t.Fatalf("%d of %d flips hit a non-final segment: the rig must cover both cases", loud, flips)
	}
}

// TestSnapshotPastLogEnd: a snapshot is synced on its own, so after a
// crash the log may end before the position a snapshot names. Appends
// must then continue at or after that position, or they would not count.
func TestSnapshotPastLogEnd(t *testing.T) {
	root := t.TempDir()
	st, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := openSession(t, st, "a", 0), openSession(t, st, "b", 0)
	for k := 0; k < 6; k++ {
		appendWritten(t, a, sessionFrame(0, k))
	}
	if _, err := b.WriteSnapshot(testSnapshot(0)); err != nil { // names the position after a's six records
		t.Fatal(err)
	}
	// The crash keeps b's snapshot but only two and a half of a's records.
	dir := copyDir(t, root)
	seg := logFiles(t, dir)[0]
	if err := os.Truncate(seg, a.log.recs[2].lsn+17); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ra, _, fa, err := st2.Recover("a")
		if err != nil {
			t.Fatal(err)
		}
		rb, _, fb, err := st2.Recover("b")
		if err != nil {
			t.Fatal(err)
		}
		if len(fa) != 2+round || len(fb) != round {
			t.Fatalf("round %d: recovered %d and %d frames, want %d and %d", round, len(fa), len(fb), 2+round, round)
		}
		appendWritten(t, ra, sessionFrame(0, ra.Applied()))
		appendWritten(t, rb, sessionFrame(1, rb.Applied()))
	}
}

// TestOpenRefusesPerSessionWAL: a state directory still holding a WAL
// file of the per-session layout that preceded the shared log fails Open
// with an error naming the file — opening without its frames would drop
// acknowledged ones silently.
func TestOpenRefusesPerSessionWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	openSession(t, st, "s-000001", 3).Close()
	wal := filepath.Join(dir, "s-000001", "wal-3.ndjson")
	if err := os.WriteFile(wal, []byte("frames of the old layout"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), wal) {
		t.Fatalf("open over %s: %v, want an error naming it", wal, err)
	}
}

// TestBoundedDisk: a session idle since an old segment must not pin the
// log. One session streams five segments' worth of frames while another
// sits on a few records from the start; a janitor that checkpoints what
// Lagging names (the fleet's does) keeps the directory at three segment
// files or fewer. Without it the idle session pins every segment.
func TestBoundedDisk(t *testing.T) {
	for _, janitor := range []bool{false, true} {
		dir := t.TempDir()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		st.segmentSize = 8 << 10
		idle, busy := openSession(t, st, "idle", 0), openSession(t, st, "busy", 0)
		for k := 0; k < 3; k++ {
			appendWritten(t, idle, sessionFrame(0, k))
		}
		for st.logEnd() < 5*st.segmentSize {
			appendWritten(t, busy, sessionFrame(1, busy.Applied()))
			if busy.SinceSnapshot() >= 16 {
				if _, err := busy.WriteSnapshot(testSnapshot(0)); err != nil {
					t.Fatal(err)
				}
			}
			if lag := st.Lagging(); janitor && len(lag) > 0 {
				if len(lag) != 1 || lag[0] != "idle" {
					t.Fatalf("lagging sessions %v, want [idle]", lag)
				}
				if _, err := idle.WriteSnapshot(testSnapshot(0)); err != nil {
					t.Fatal(err)
				}
			}
		}
		n := len(logFiles(t, dir))
		if janitor && n > 3 {
			t.Fatalf("%d segment files with the idle session checkpointed when it lagged, want <= 3", n)
		}
		if !janitor && n < 5 {
			t.Fatalf("%d segment files with an idle session holding records in the first: its segment was deleted under it", n)
		}
		// Either way both sessions recover whole.
		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for id, applied := range map[string]int{"idle": 3, "busy": busy.Applied()} {
			_, snap, frames, err := st2.Recover(id)
			if err != nil || snap.FramesApplied+len(frames) != applied {
				t.Fatalf("janitor=%v: %s recovered %d frames (%v), want %d", janitor, id, snap.FramesApplied+len(frames), err, applied)
			}
		}
	}
}

// TestMaterializeOverDivergedCopy: shipped state replaces a diverged
// local copy of the session without a log rewrite — the local records
// stay in the log and must be ignored, by this store and by the next one
// to open the directory — and Remove needs no rewrite either.
func TestMaterializeOverDivergedCopy(t *testing.T) {
	src, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss := openSession(t, src, "s-1", 0)
	for k := 0; k < 5; k++ {
		if err := ss.Append(sessionFrame(7, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.Commit(5); err != nil {
		t.Fatal(err)
	}
	shipped, err := src.ReplicaRead("s-1", -1)
	if err != nil || shipped.Snapshot == nil || len(shipped.Frames) != 5 {
		t.Fatalf("replica read: %v, %+v", err, shipped)
	}
	if tail, err := src.ReplicaRead("s-1", 3); err != nil || tail.Snapshot != nil || tail.FirstSeq != 4 || len(tail.Frames) != 2 {
		t.Fatalf("replica read from cursor 3: %v, %+v", err, tail)
	}

	dstDir := t.TempDir()
	dst, err := Open(dstDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The local copy diverged: same ID, same base, different frames, more of them.
	local := openSession(t, dst, "s-1", 0)
	for k := 0; k < 9; k++ {
		if err := local.Append(sessionFrame(99, k)); err != nil {
			t.Fatal(err)
		}
	}
	local.Close()
	other := openSession(t, dst, "s-2", 0) // a bystander sharing the log
	if err := other.Append(sessionFrame(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := other.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := dst.Materialize("s-1", shipped.Snapshot, shipped.Frames); err != nil {
		t.Fatal(err)
	}
	for round, st := range []*Store{dst, nil} {
		if st == nil {
			if st, err = Open(dstDir, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		_, snap, frames, err := st.Recover("s-1")
		if err != nil {
			t.Fatal(err)
		}
		if snap.FramesApplied != 0 || !reflect.DeepEqual(frames, shipped.Frames) {
			t.Fatalf("round %d: recovered %d+%d frames, want exactly the 5 shipped", round, snap.FramesApplied, len(frames))
		}
		if _, _, frames, err := st.Recover("s-2"); err != nil || len(frames) != 1 {
			t.Fatalf("round %d: bystander recovered %d frames (%v)", round, len(frames), err)
		}
	}
	if err := dst.Remove("s-1"); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dstDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.Recover("s-1"); err == nil {
		t.Fatal("removed session recovered from the records it left in the log")
	}
	// A new session under the removed ID starts clean.
	if _, _, frames, err := func() (*SessionStore, *Snapshot, []*trace.Frame, error) {
		openSession(t, st, "s-1", 0).Close()
		return st.Recover("s-1")
	}(); err != nil || len(frames) != 0 {
		t.Fatalf("session re-created under a removed ID recovered %d stale frames (%v)", len(frames), err)
	}
}
