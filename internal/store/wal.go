package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"roboads/internal/trace"
)

// walRecord is one NDJSON line of a WAL segment. Frame is kept as raw
// JSON so the checksum covers the exact bytes on disk: json.Unmarshal
// into a RawMessage preserves the original byte sequence, making the
// CRC check independent of field ordering or float re-rendering.
type walRecord struct {
	// Seq is the absolute applied-frame index (1-based). Records in a
	// segment must be contiguous starting at the paired snapshot's
	// FramesApplied+1; a gap or regression marks the tail invalid.
	Seq int `json:"seq"`
	// Crc is the CRC-32 (IEEE) of the Frame bytes.
	Crc uint32 `json:"crc"`
	// Frame is the accepted monitor input, in the trace wire format.
	Frame json.RawMessage `json:"frame"`
}

// ErrWALCorrupt reports a WAL record that is structurally invalid in a
// way strict readers care about. Recovery itself never returns it for a
// torn tail — that is the expected crash artifact — but DecodeWALRecord
// surfaces it so fuzzing and diagnostics can distinguish bad records.
var ErrWALCorrupt = errors.New("store: corrupt WAL record")

// Binary WAL record framing. New appends use this format — one encode
// pass into a reused buffer instead of the JSON path's marshal-then-
// marshal-again copy — while recovery accepts both formats in one
// segment, so a store upgraded mid-segment replays its old JSON prefix
// unchanged:
//
//	record  = marker 0xB2 | payloadLen uint32 LE | payload | crc32(payload) uint32 LE
//	payload = seq uint64 LE | frame (trace binary payload layout)
//
// The marker can never open a JSON record line ('{') or be a newline,
// so a reader can dispatch on the first byte of each record.
const (
	walBinaryMarker byte = 0xB2
	// walBinaryOverhead is the envelope size around a record payload.
	walBinaryOverhead = 1 + 4 + 4
	// maxWALPayload bounds a declared payload length against corrupt or
	// hostile length prefixes (mirrors the snapshot envelope bound).
	maxWALPayload = 64 << 20
	// oversizeWALRecord is the record size above which the oversize
	// counter increments — the former recovery scanner line cap, kept as
	// the threshold so the metric flags exactly the frames that older
	// versions would have silently dropped at recovery.
	oversizeWALRecord = 1 << 22
)

// EncodeWALRecord renders one frame as a CRC-checked NDJSON line
// (including the trailing newline).
func EncodeWALRecord(seq int, frame *trace.Frame) ([]byte, error) {
	if frame == nil {
		return nil, errors.New("store: nil frame")
	}
	if seq <= 0 {
		return nil, fmt.Errorf("store: WAL sequence %d must be positive", seq)
	}
	body, err := json.Marshal(frame)
	if err != nil {
		return nil, fmt.Errorf("store: encode WAL frame: %w", err)
	}
	rec := walRecord{Seq: seq, Crc: crc32.ChecksumIEEE(body), Frame: body}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode WAL record: %w", err)
	}
	return append(line, '\n'), nil
}

// DecodeWALRecord parses one NDJSON line back into its sequence number
// and frame, verifying the checksum. Truncated or bit-flipped input
// returns an error wrapping ErrWALCorrupt; no input panics.
func DecodeWALRecord(line []byte) (int, *trace.Frame, error) {
	var rec walRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrWALCorrupt, err)
	}
	if rec.Seq <= 0 {
		return 0, nil, fmt.Errorf("%w: sequence %d", ErrWALCorrupt, rec.Seq)
	}
	if len(rec.Frame) == 0 {
		return 0, nil, fmt.Errorf("%w: empty frame", ErrWALCorrupt)
	}
	if got := crc32.ChecksumIEEE(rec.Frame); got != rec.Crc {
		return 0, nil, fmt.Errorf("%w: checksum %08x (want %08x)", ErrWALCorrupt, got, rec.Crc)
	}
	var frame trace.Frame
	if err := json.Unmarshal(rec.Frame, &frame); err != nil {
		return 0, nil, fmt.Errorf("%w: frame payload: %v", ErrWALCorrupt, err)
	}
	return rec.Seq, &frame, nil
}

// AppendWALRecordBinary appends one frame as a binary WAL record to dst
// and returns the extended slice. This is the hot-path encoder: one
// pass, no intermediate marshal, amortized zero allocations when dst is
// reused across appends.
func AppendWALRecordBinary(dst []byte, seq int, frame *trace.Frame) ([]byte, error) {
	if frame == nil {
		return dst, errors.New("store: nil frame")
	}
	if seq <= 0 {
		return dst, fmt.Errorf("store: WAL sequence %d must be positive", seq)
	}
	dst = append(dst, walBinaryMarker, 0, 0, 0, 0)
	lenAt := len(dst) - 4
	payloadAt := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(seq))
	dst = trace.AppendFrameBinary(dst, frame)
	payload := dst[payloadAt:]
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload)), nil
}

// decodeWALRecordBinary parses the binary WAL record opening at data[0]
// (which the caller has checked is walBinaryMarker). n is the full
// encoded record length when the record is intact; a torn, truncated,
// or checksum-failed record returns an error wrapping ErrWALCorrupt.
func decodeWALRecordBinary(data []byte) (seq int, frame *trace.Frame, n int, err error) {
	if len(data) < 5 {
		return 0, nil, 0, fmt.Errorf("%w: torn binary prologue", ErrWALCorrupt)
	}
	plen := int(binary.LittleEndian.Uint32(data[1:5]))
	if plen < 8 || plen > maxWALPayload {
		return 0, nil, 0, fmt.Errorf("%w: payload length %d", ErrWALCorrupt, plen)
	}
	n = walBinaryOverhead + plen
	if len(data) < n {
		return 0, nil, 0, fmt.Errorf("%w: torn binary payload", ErrWALCorrupt)
	}
	payload := data[5 : 5+plen]
	want := binary.LittleEndian.Uint32(data[5+plen:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return 0, nil, 0, fmt.Errorf("%w: checksum %08x (want %08x)", ErrWALCorrupt, got, want)
	}
	seq = int(int64(binary.LittleEndian.Uint64(payload)))
	if seq <= 0 {
		return 0, nil, 0, fmt.Errorf("%w: sequence %d", ErrWALCorrupt, seq)
	}
	frame, ferr := trace.DecodeFrameBinary(payload[8:])
	if ferr != nil {
		return 0, nil, 0, fmt.Errorf("%w: frame payload: %v", ErrWALCorrupt, ferr)
	}
	return seq, frame, n, nil
}

// decodeWALStream parses the valid record prefix of a WAL segment
// holding JSON lines, binary records, or any mix (a segment written by
// an older version and continued by this one). It stops at the first
// torn, corrupt, or out-of-sequence record: everything after a bad
// record postdates the crash that produced it. validBytes is the byte
// length of the valid prefix (== len(data) when the segment is clean).
// oversize counts valid records larger than oversizeWALRecord — frames
// that pre-fix recovery code would have silently dropped as unscannable.
func decodeWALStream(data []byte, firstSeq int) (frames []*trace.Frame, validBytes int, oversize int) {
	next := firstSeq
	off := 0
	for off < len(data) {
		var seq, n int
		var frame *trace.Frame
		var derr error
		switch data[off] {
		case '\n':
			// Blank line between JSON records; tolerated like the old
			// line scanner did.
			off++
			continue
		case walBinaryMarker:
			seq, frame, n, derr = decodeWALRecordBinary(data[off:])
		default:
			nl := bytes.IndexByte(data[off:], '\n')
			if nl < 0 {
				// Final line has no newline: torn mid-append.
				return frames, off, oversize
			}
			n = nl + 1
			seq, frame, derr = DecodeWALRecord(data[off : off+nl])
		}
		if derr != nil || seq != next {
			return frames, off, oversize
		}
		if n > oversizeWALRecord {
			oversize++
		}
		frames = append(frames, frame)
		next++
		off += n
	}
	return frames, off, oversize
}

// readWALTail reads the valid prefix of a WAL stream whose first record
// must carry sequence number firstSeq. It stops — without error — at
// the first torn, corrupt, or out-of-sequence record: everything after
// a bad record postdates the crash that produced it and is discarded.
// truncated reports whether anything was discarded; oversize counts
// recovered records larger than oversizeWALRecord (there is no upper
// bound on record size — a legitimately huge acked frame recovers
// intact rather than masquerading as a torn tail). Only I/O errors (not
// decode failures) are returned.
func readWALTail(r io.Reader, firstSeq int) (frames []*trace.Frame, truncated bool, oversize int, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, true, 0, err
	}
	frames, validBytes, oversize := decodeWALStream(data, firstSeq)
	return frames, validBytes < len(data), oversize, nil
}

// walWriter appends CRC-checked frame records to one WAL segment file
// under the store's fsync policy. It is not safe for concurrent use;
// the session layer serializes appends behind the session step lock.
type walWriter struct {
	f          *os.File
	seq        int // last appended sequence number
	fsyncEvery int // 1: every append; n>1: every n appends; <0: never
	sinceSync  int
	syncNanos  int64  // wall time of the most recent append's inline fsync; 0 when it carried none
	buf        []byte // reused binary record encoding buffer
	st         *Store // for the sync seam, Store.fsync
}

// openWAL opens the segment at path, creating it if needed: mode is
// os.O_APPEND to continue it or os.O_TRUNC to restart it. lastSeq is the
// sequence number of the last record already known durable — the paired
// snapshot's FramesApplied plus any records replayed from the segment at
// recovery.
func (st *Store) openWAL(path string, mode, lastSeq, fsyncEvery int) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|mode, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open WAL: %w", err)
	}
	return &walWriter{f: f, seq: lastSeq, fsyncEvery: fsyncEvery, st: st}, nil
}

// append writes one frame as the next record, fsyncing per policy.
// It returns the record's sequence number and whether this append
// carried an fsync (the store's fsync counter tracks only real syncs).
// Records are written in the binary format, encoded once into the
// writer's reused buffer — the hot durable path carries no JSON marshal
// and amortizes to zero allocations per append.
func (w *walWriter) append(frame *trace.Frame) (seq int, synced bool, err error) {
	w.syncNanos = 0
	w.buf, err = AppendWALRecordBinary(w.buf[:0], w.seq+1, frame)
	if err != nil {
		return 0, false, err
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return 0, false, fmt.Errorf("store: append WAL: %w", err)
	}
	w.seq++
	w.sinceSync++
	if w.fsyncEvery > 0 && w.sinceSync >= w.fsyncEvery {
		// Timed so frame tracing can reattribute the inline fsync's
		// share of the append out of the wal_append stage.
		t0 := time.Now()
		if err := w.st.fsync(w.f); err != nil {
			return 0, false, fmt.Errorf("store: fsync WAL: %w", err)
		}
		w.syncNanos = time.Since(t0).Nanoseconds()
		w.sinceSync = 0
		return w.seq, true, nil
	}
	return w.seq, false, nil
}

// sync forces an fsync regardless of policy.
func (w *walWriter) sync() error {
	w.sinceSync = 0
	return w.st.fsync(w.f)
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
