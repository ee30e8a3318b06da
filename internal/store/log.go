package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"roboads/internal/trace"
)

// Log record framing, the one on-disk record format:
//
//	record  = marker 0xB3 | payloadLen uint32 LE | payload | crc32(payload) uint32 LE
//	payload = idLen uint8 | session ID | seq uint64 LE | frame (trace binary payload layout)
//
// seq is the absolute applied-frame index (1-based) within the session.
const (
	recordMarker   byte = 0xB3
	recordOverhead      = 1 + 4 + 4 // the envelope around a payload
	// maxRecordPayload bounds a declared payload length against corrupt or
	// hostile length prefixes (mirrors the snapshot envelope bound).
	maxRecordPayload = 64 << 20
	// segmentSize is the length at which the head segment is finished and
	// a new one started; a segment ends with the job that crossed it.
	segmentSize = 4 << 20
)

// ErrLogFailed reports that a write or fsync of the log failed earlier;
// the store then refuses every Append and Commit until reopened (package
// doc: a later fsync would succeed over the hole the failed one left).
var ErrLogFailed = errors.New("store: log failed, reopen the store")

// appendRecord appends one frame as a log record to dst: one pass, and
// amortized zero allocations when dst is reused.
func appendRecord(dst []byte, id string, seq int, frame *trace.Frame) ([]byte, error) {
	if frame == nil || seq <= 0 || id == "" || len(id) > math.MaxUint8 {
		return dst, fmt.Errorf("store: no log record for session %q, sequence %d, frame %p", id, seq, frame)
	}
	dst = append(dst, recordMarker, 0, 0, 0, 0)
	payloadAt := len(dst)
	dst = append(dst, byte(len(id)))
	dst = append(dst, id...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(seq))
	dst = trace.AppendFrameBinary(dst, frame)
	payload := dst[payloadAt:]
	binary.LittleEndian.PutUint32(dst[payloadAt-4:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload)), nil
}

// openRecord checks the envelope of the record at the front of data —
// marker, length, checksum — and returns its payload and encoded length,
// or n = 0 when the record is torn, truncated or corrupt.
func openRecord(data []byte) (payload []byte, n int) {
	if len(data) < 5 || data[0] != recordMarker {
		return nil, 0
	}
	plen := int(binary.LittleEndian.Uint32(data[1:5]))
	if plen > maxRecordPayload || len(data) < recordOverhead+plen {
		return nil, 0
	}
	payload = data[5 : 5+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[5+plen:]) {
		return nil, 0
	}
	return payload, recordOverhead + plen
}

// scanLog walks the intact records at the front of data, calling visit
// with each one's offset, encoded length, session ID, sequence number and
// encoded frame (the slices alias data), and returns the length of that
// prefix: the offset of the first torn or corrupt record, or len(data).
func scanLog(data []byte, visit func(off, n int, id []byte, seq int, frame []byte)) int {
	off := 0
	for off < len(data) {
		p, n := openRecord(data[off:])
		if n == 0 || len(p) < 1 || p[0] == 0 || len(p) < 1+int(p[0])+8 {
			break
		}
		idEnd := 1 + int(p[0])
		seq := int(int64(binary.LittleEndian.Uint64(p[idEnd:])))
		if seq <= 0 {
			break
		}
		visit(off, n, p[1:idEnd], seq, p[idEnd+8:])
		off += n
	}
	return off
}

// segment is one file of the log; start is the LSN of its first byte.
type segment struct {
	start int64
	f     *os.File
}

// recPos is where one record lies in the log.
type recPos struct {
	lsn int64
	n   int32
}

// sessionLog is the in-memory index of one persisted session: its newest
// snapshot and where the records that count after it lie. Guarded by
// Store.mu.
type sessionLog struct {
	base int      // the snapshot's FramesApplied
	lsn  int64    // the snapshot's LogLSN
	recs []recPos // records base+1, base+2, …
}

func (st *Store) segmentPath(start int64) string {
	return filepath.Join(st.dir, fmt.Sprintf("log-%016x", start))
}

func segmentStart(name string) (int64, bool) {
	rest, ok := strings.CutPrefix(name, "log-")
	start, err := strconv.ParseUint(rest, 16, 63)
	return int64(start), ok && len(rest) == 16 && err == nil
}

// openLog builds the store's view of its directory: every session's
// newest snapshot, then one scan of the log from the oldest position a
// snapshot names, which indexes the records that count, cuts off a torn
// tail and leaves the head segment ready for appends. A WAL file of the
// per-session layout that preceded the shared log fails the open: its
// frames would otherwise be silently dropped.
func (st *Store) openLog() error {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return err
	}
	var starts []int64 // ascending: ReadDir sorts, and the names are fixed-width hex
	from, floor := int64(math.MaxInt64), int64(0)
	for _, ent := range entries {
		if start, ok := segmentStart(ent.Name()); ok && !ent.IsDir() {
			starts = append(starts, start)
		} else if ent.IsDir() {
			if old, _ := filepath.Glob(filepath.Join(st.dir, ent.Name(), "wal-*.ndjson")); len(old) > 0 {
				return fmt.Errorf("%s is a per-session WAL file, a layout this build no longer reads: "+
					"open the directory once with a build at or before commit 21c2ece, which moves its frames into the shared log", old[0])
			}
			if _, snap, err := loadSnapshot(filepath.Join(st.dir, ent.Name())); err == nil {
				st.sessions[ent.Name()] = &sessionLog{base: snap.FramesApplied, lsn: snap.LogLSN}
				from, floor = min(from, snap.LogLSN), max(floor, snap.LogLSN)
			}
		}
	}
	end := int64(0) // of the log as scanned so far
	for i, start := range starts {
		path := st.segmentPath(start)
		f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
		if err != nil {
			return err
		}
		info, err := f.Stat()
		if err != nil {
			return err
		}
		if end = start + info.Size(); end <= from {
			f.Close()
			os.Remove(path) // wholly before every snapshot: nobody's records
			continue
		}
		st.segs = append(st.segs, segment{start, f})
		first := start + max(from-start, 0) // read from there only
		data := make([]byte, end-first)
		if _, err := f.ReadAt(data, first-start); err != nil {
			return err
		}
		valid := scanLog(data, func(o, n int, id []byte, seq int, _ []byte) {
			lsn := first + int64(o)
			if e := st.sessions[string(id)]; e != nil && lsn >= e.lsn && seq == e.base+len(e.recs)+1 {
				e.recs = append(e.recs, recPos{lsn, int32(n)})
			}
		})
		if end = first + int64(valid); valid == len(data) {
			continue
		}
		// The log ends at the first bad record, whoever's it is.
		if err := f.Truncate(end - start); err != nil {
			return fmt.Errorf("truncate torn log tail: %w", err)
		}
		if later := starts[i+1:]; len(later) > 0 {
			// Not a torn write (rotate). What follows cannot be replayed over
			// the hole, so the log still ends here — but loudly.
			st.mCorrupt.Inc()
			slog.Error("store: corrupt record inside the log; the log ends there and later segments are set aside",
				"dir", st.dir, "lsn", end, "orphaned", len(later))
			for _, start := range later {
				os.Rename(st.segmentPath(start), st.segmentPath(start)+".orphan")
			}
		}
		break
	}
	// A log that lost its tail may end before a snapshot's LSN; appends must
	// still land at or after it to count, so the log continues from there.
	st.cursor = max(end, floor)
	if n := len(st.segs); n == 0 || st.cursor != end {
		if err := st.startSegment(st.cursor); err != nil {
			return err
		}
	}
	st.synced = st.cursor
	return nil
}

// head is the segment appends go to. The caller holds mu.
func (st *Store) head() segment { return st.segs[len(st.segs)-1] }

// startSegment creates the segment starting at LSN start and makes it the
// head. The caller holds mu (or is Open).
func (st *Store) startSegment(start int64) error {
	f, err := os.OpenFile(st.segmentPath(start), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("start log segment: %w", err)
	}
	syncDir(st.dir)
	st.segs = append(st.segs, segment{start, f})
	return nil
}

// fail records the first write or sync error of the log, after which the
// store refuses appends and commits; it returns the sticky error.
func (st *Store) fail(err error) error {
	err = fmt.Errorf("%w: %w", ErrLogFailed, err)
	st.failure.CompareAndSwap(nil, &err)
	return st.failed()
}

func (st *Store) failed() error {
	if p := st.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// appendLog writes buf — whole records of session e, a job's worth — at
// the end of the log in one write, indexes them, and returns the LSN just
// past them. A full head segment is rotated first.
func (st *Store) appendLog(buf []byte, e *sessionLog) (int64, error) {
	st.mu.Lock()
	for st.failed() == nil && st.cursor-st.head().start >= st.segmentSize {
		st.mu.Unlock()
		st.rotate()
		st.mu.Lock()
	}
	defer st.mu.Unlock()
	if err := st.failed(); err != nil {
		return 0, err
	}
	if _, err := st.head().f.Write(buf); err != nil {
		// A short write leaves the file and the cursor disagreeing.
		return 0, st.fail(fmt.Errorf("append: %w", err))
	}
	for off := 0; off < len(buf); {
		n := recordOverhead + int(binary.LittleEndian.Uint32(buf[off+1:]))
		e.recs = append(e.recs, recPos{st.cursor + int64(off), int32(n)})
		off += n
	}
	st.cursor += int64(len(buf))
	return st.cursor, nil
}

// rotate starts the successor of a full head segment. The finished one is
// synced first — being full it takes no more appends, so the sync covers
// it whole: a bad record in any segment but the last is no torn write.
func (st *Store) rotate() {
	st.syncMu.Lock()
	defer st.syncMu.Unlock()
	if _, err := st.syncLocked(math.MaxInt64); err != nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cursor-st.head().start < st.segmentSize {
		return // someone else rotated
	}
	if err := st.startSegment(st.cursor); err != nil {
		st.fail(err)
	}
	st.gc()
}

// gc deletes the segments no session needs any more: those wholly before
// the oldest record any session has since its snapshot. The caller holds
// mu.
func (st *Store) gc() {
	if len(st.segs) < 2 {
		return
	}
	need := st.cursor
	for _, e := range st.sessions {
		if len(e.recs) > 0 && e.recs[0].lsn < need {
			need = e.recs[0].lsn
		}
	}
	for len(st.segs) > 1 && st.segs[1].start <= need {
		st.segs[0].f.Close()
		os.Remove(st.segmentPath(st.segs[0].start))
		st.segs = st.segs[1:]
	}
}

// Lagging lists the sessions that pin old log: those whose oldest record
// since their snapshot lies more than two segments behind the head. A
// checkpoint (the fleet's janitor) frees it; an evicted session ends on a
// snapshot and pins nothing.
func (st *Store) Lagging() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var ids []string
	for id, e := range st.sessions {
		if len(e.recs) > 0 && st.cursor-e.recs[0].lsn > 2*st.segmentSize {
			ids = append(ids, id)
		}
	}
	return ids
}

// syncLog makes the log durable through lsn at least — in fact through
// everything appended by the time it runs — and returns how far that is.
// One sync runs at a time; a caller that waited out another's usually
// finds its records covered and syncs nothing. Any failure is sticky.
func (st *Store) syncLog(lsn int64) (int64, error) {
	st.syncMu.Lock()
	defer st.syncMu.Unlock()
	return st.syncLocked(lsn)
}

func (st *Store) syncLocked(lsn int64) (int64, error) {
	if err := st.failed(); err != nil || st.synced >= lsn {
		return st.synced, err
	}
	st.mu.Lock()
	head, end := st.head().f, st.cursor
	st.mu.Unlock()
	if st.synced < end {
		// Rotation takes syncMu, so head stays the head until this returns.
		if err := st.fsync(head); err != nil {
			return st.synced, st.fail(fmt.Errorf("fsync: %w", err))
		}
		st.mFsyncs.Inc()
		st.synced = end
	}
	return st.synced, nil
}

// setSnapshot records that session id now rests on a snapshot of base
// frames taken at lsn, followed by recs, and frees the log that unpins.
func (st *Store) setSnapshot(id string, base int, lsn int64, recs []recPos) *sessionLog {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.sessions[id]
	if e == nil {
		e = new(sessionLog)
		st.sessions[id] = e
	}
	e.base, e.lsn, e.recs = base, lsn, recs
	st.gc()
	return e
}

// tail returns session id's index as it stands.
func (st *Store) tail(id string) (e *sessionLog, base int, lsn int64, recs []recPos) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e = st.sessions[id]; e != nil {
		base, lsn, recs = e.base, e.lsn, e.recs
	}
	return e, base, lsn, recs
}

// readRecords reads and decodes the records at recs, session id's from
// firstSeq on. Adjacent records — a job's were one write — share a ReadAt.
func (st *Store) readRecords(id string, firstSeq int, recs []recPos) ([]*trace.Frame, error) {
	st.mu.Lock()
	segs := st.segs
	st.mu.Unlock()
	frames := make([]*trace.Frame, 0, len(recs))
	var buf []byte
	for i := 0; i < len(recs); {
		k := len(segs) - 1
		for k > 0 && segs[k].start > recs[i].lsn {
			k--
		}
		limit := int64(math.MaxInt64)
		if k+1 < len(segs) {
			limit = segs[k+1].start
		}
		j, size := i+1, int(recs[i].n)
		for j < len(recs) && recs[j].lsn == recs[i].lsn+int64(size) && recs[j].lsn < limit {
			size += int(recs[j].n)
			j++
		}
		if cap(buf) < size {
			buf = make([]byte, size)
		}
		if _, err := segs[k].f.ReadAt(buf[:size], recs[i].lsn-segs[k].start); err != nil {
			return nil, fmt.Errorf("store: read log at %d: %w", recs[i].lsn, err)
		}
		scanLog(buf[:size], func(_, _ int, rid []byte, seq int, raw []byte) {
			if frame, err := trace.DecodeFrameBinary(raw); err == nil && string(rid) == id && seq == firstSeq+len(frames) {
				frames = append(frames, frame)
			}
		})
		if len(frames) != j {
			return nil, fmt.Errorf("store: session %s: frame %d does not read back from the log at %d", id, firstSeq+len(frames), recs[i].lsn)
		}
		i = j
	}
	return frames, nil
}
