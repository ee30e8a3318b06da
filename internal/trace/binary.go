package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"
)

// Binary trace wire format.
//
// A binary stream opens with a fixed magic plus a format version, then
// carries length-prefixed records, each integrity-checked independently:
//
//	stream  = magic[6] ("RBTRAC") | version uint16 LE | record...
//	record  = kind byte | payloadLen uint32 LE | payload | crc32(payload) uint32 LE
//
// Record kinds: recHeader (payload is the JSON-encoded Header — written
// exactly once, first) and recFrame (payload is the fixed binary frame
// layout below). The CRC is computed over the payload bytes only, so a
// torn or bit-flipped record is detected without trusting its neighbors.
//
// Frame payload layout (all integers and float64s little-endian):
//
//	k int64 | tNanos int64 | len(u) uint32 | u []float64
//	| nReadings uint32 | nReadings × (nameLen uint16 | name | zLen uint32 | z []float64)
//
// Readings are encoded in ascending name order, so encoding is a pure
// function of the frame: the same frame always produces the same bytes,
// which keeps WAL checksums and replay comparisons deterministic.
const (
	// BinaryFormatVersion is the current binary trace format version,
	// independent of the JSON FormatVersion carried inside the header.
	BinaryFormatVersion = 1

	recHeader byte = 0x01
	recFrame  byte = 0x02
	// RecReply is the kind of internal/api's reply record, the reply
	// side of the binary streaming wire; declared here so record kinds
	// stay unique across everything that uses the envelope.
	RecReply byte = 0x03

	// maxBinaryRecord bounds a record payload so a hostile or corrupt
	// length prefix cannot force a giant allocation (mirrors the
	// snapshot envelope's bound).
	maxBinaryRecord = 64 << 20
)

// binaryMagic identifies a binary trace stream. The first byte can never
// open a JSON header line ('{'), so readers can sniff the format from
// the stream prefix alone.
var binaryMagic = [6]byte{'R', 'B', 'T', 'R', 'A', 'C'}

// ErrCorrupt reports a structurally invalid binary record: torn,
// bit-flipped, length-bombed, or checksum-mismatched input.
var ErrCorrupt = errors.New("trace: corrupt binary record")

// AppendFrameBinary appends the binary payload encoding of f (no record
// envelope) to dst and returns the extended slice. Readings are encoded
// in sorted name order so the encoding is deterministic.
func AppendFrameBinary(dst []byte, f *Frame) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.K))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.TNanos))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.U)))
	for _, v := range f.U {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Readings)))
	var inline [8]string // a robot's sensor suite, sorted without allocating
	names := inline[:0]
	for name := range f.Readings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
		dst = append(dst, name...)
		z := f.Readings[name]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(z)))
		for _, v := range z {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// DecodeFrameBinary parses one binary frame payload produced by
// AppendFrameBinary. Truncated or trailing-garbage input returns an
// error wrapping ErrCorrupt; no input panics.
func DecodeFrameBinary(payload []byte) (*Frame, error) {
	cur := payload
	u64 := func() (uint64, bool) {
		if len(cur) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(cur)
		cur = cur[8:]
		return v, true
	}
	u32 := func() (uint32, bool) {
		if len(cur) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(cur)
		cur = cur[4:]
		return v, true
	}
	k, ok1 := u64()
	t, ok2 := u64()
	uLen, ok3 := u32()
	if !ok1 || !ok2 || !ok3 {
		return nil, fmt.Errorf("%w: truncated frame prologue", ErrCorrupt)
	}
	if uint64(uLen)*8 > uint64(len(cur)) {
		return nil, fmt.Errorf("%w: command length %d exceeds payload", ErrCorrupt, uLen)
	}
	frame := &Frame{K: int(int64(k)), TNanos: int64(t)}
	if uLen > 0 {
		frame.U = make([]float64, uLen)
		for i := range frame.U {
			frame.U[i] = math.Float64frombits(binary.LittleEndian.Uint64(cur[8*i:]))
		}
		cur = cur[8*uLen:]
	}
	nReadings, ok := u32()
	if !ok {
		return nil, fmt.Errorf("%w: truncated reading count", ErrCorrupt)
	}
	// Each reading costs at least 6 header bytes; bound the map size by
	// what the remaining payload could possibly hold.
	if uint64(nReadings)*6 > uint64(len(cur)) {
		return nil, fmt.Errorf("%w: reading count %d exceeds payload", ErrCorrupt, nReadings)
	}
	frame.Readings = make(map[string][]float64, nReadings)
	for i := uint32(0); i < nReadings; i++ {
		if len(cur) < 2 {
			return nil, fmt.Errorf("%w: truncated reading name length", ErrCorrupt)
		}
		nameLen := int(binary.LittleEndian.Uint16(cur))
		cur = cur[2:]
		if len(cur) < nameLen {
			return nil, fmt.Errorf("%w: truncated reading name", ErrCorrupt)
		}
		name := string(cur[:nameLen])
		cur = cur[nameLen:]
		zLen, ok := u32()
		if !ok {
			return nil, fmt.Errorf("%w: truncated reading length", ErrCorrupt)
		}
		if uint64(zLen)*8 > uint64(len(cur)) {
			return nil, fmt.Errorf("%w: reading %q length %d exceeds payload", ErrCorrupt, name, zLen)
		}
		z := make([]float64, zLen)
		for j := range z {
			z[j] = math.Float64frombits(binary.LittleEndian.Uint64(cur[8*j:]))
		}
		cur = cur[8*zLen:]
		frame.Readings[name] = z
	}
	if len(cur) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(cur))
	}
	return frame, nil
}

// AppendFrameRecord appends one complete frame record (kind + length +
// binary payload + CRC) to dst and returns the extended slice. This is
// the unit of the binary streaming wire: a sequence of frame records
// with no stream header is the batch-ingest HTTP body, and the same
// records follow the magic+header in a recorded binary trace.
func AppendFrameRecord(dst []byte, f *Frame) []byte {
	dst, payloadAt := BeginRecord(dst, recFrame)
	return EndRecord(AppendFrameBinary(dst, f), payloadAt)
}

// BeginRecord opens a record of the given kind on dst: it reserves the
// envelope prologue and returns where the payload starts. The caller
// appends the payload in place and seals it with EndRecord, so encoding
// makes a single pass over dst.
func BeginRecord(dst []byte, kind byte) (out []byte, payloadAt int) {
	dst = append(dst, kind, 0, 0, 0, 0)
	return dst, len(dst)
}

// EndRecord backfills the length of the record opened at payloadAt and
// appends its CRC trailer.
func EndRecord(dst []byte, payloadAt int) []byte {
	payload := dst[payloadAt:]
	binary.LittleEndian.PutUint32(dst[payloadAt-4:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// ReadRecord reads one record of at most limit payload bytes from br,
// appending the payload to buf[:0] (nil allocates; the returned payload
// aliases buf when it fits). A clean EOF before the kind byte returns
// io.EOF; EOF anywhere inside a record is a torn record and returns
// ErrCorrupt.
func ReadRecord(br *bufio.Reader, buf []byte, limit int) (byte, []byte, error) {
	// The prologue and the trailer are peeked in br's own buffer: arrays
	// handed to io.ReadFull would cost two heap allocations a record.
	head, err := br.Peek(5)
	if len(head) == 0 {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, err
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%w: torn record length", ErrCorrupt)
	}
	kind, n := head[0], int(binary.LittleEndian.Uint32(head[1:]))
	br.Discard(5)
	if n > limit {
		return 0, nil, fmt.Errorf("%w: record length %d exceeds %d", ErrCorrupt, n, limit)
	}
	// Read the payload in bounded chunks rather than allocating the
	// declared length up front: a corrupt or hostile length prefix backed
	// by a short stream then costs only the bytes actually present.
	payload := buf[:0]
	for len(payload) < n {
		chunk := min(n-len(payload), 64<<10)
		start := len(payload)
		payload = slices.Grow(payload, chunk)[:start+chunk]
		if _, err := io.ReadFull(br, payload[start:]); err != nil {
			return 0, nil, fmt.Errorf("%w: torn record payload", ErrCorrupt)
		}
	}
	trailer, err := br.Peek(4)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: torn record checksum", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(trailer)
	br.Discard(4)
	if got := crc32.ChecksumIEEE(payload); got != want {
		return 0, nil, fmt.Errorf("%w: checksum %08x (want %08x)", ErrCorrupt, got, want)
	}
	return kind, payload, nil
}

// ReadFrameRecord reads one frame record from br — the inverse of
// AppendFrameRecord. It returns io.EOF at a clean end of stream and an
// error wrapping ErrCorrupt for torn, checksum-failed, or non-frame
// records.
func ReadFrameRecord(br *bufio.Reader) (*Frame, error) {
	kind, payload, err := ReadRecord(br, nil, maxBinaryRecord)
	if err != nil {
		return nil, err
	}
	if kind != recFrame {
		return nil, fmt.Errorf("%w: record kind 0x%02x (want frame)", ErrCorrupt, kind)
	}
	return DecodeFrameBinary(payload)
}

// NewBinaryRecorder returns a recorder that writes the binary trace
// format: the same frames as NewRecorder, ~3x smaller and with no
// per-frame JSON marshal on the hot path. NewReader transparently
// replays either format.
func NewBinaryRecorder(w io.Writer, header Header) *Recorder {
	header.Version = FormatVersion
	return &Recorder{w: bufio.NewWriter(w), header: header, binary: true}
}

// writeBinaryHeader emits the stream magic, version, and header record.
func (r *Recorder) writeBinaryHeader() error {
	if r.wrote {
		return nil
	}
	var prologue [8]byte
	copy(prologue[:6], binaryMagic[:])
	binary.LittleEndian.PutUint16(prologue[6:], BinaryFormatVersion)
	if _, err := r.w.Write(prologue[:]); err != nil {
		return err
	}
	payload, err := json.Marshal(r.header)
	if err != nil {
		return fmt.Errorf("trace: encode header: %w", err)
	}
	buf, payloadAt := BeginRecord(r.buf[:0], recHeader)
	r.buf = EndRecord(append(buf, payload...), payloadAt)
	if _, err := r.w.Write(r.buf); err != nil {
		return err
	}
	r.wrote = true
	return nil
}

// recordBinary appends one frame record, reusing the recorder's scratch
// buffer so steady-state recording does not allocate.
func (r *Recorder) recordBinary(frame *Frame) error {
	if err := r.writeBinaryHeader(); err != nil {
		return err
	}
	r.buf = AppendFrameRecord(r.buf[:0], frame)
	_, err := r.w.Write(r.buf)
	return err
}

// binaryReader is the Reader backend for binary streams.
type binaryReader struct {
	br *bufio.Reader
}

// newBinaryReader consumes the stream prologue (magic already peeked by
// NewReader) and the header record.
func newBinaryReader(br *bufio.Reader) (*binaryReader, Header, error) {
	var prologue [8]byte
	if _, err := io.ReadFull(br, prologue[:]); err != nil {
		return nil, Header{}, ErrBadHeader
	}
	if version := binary.LittleEndian.Uint16(prologue[6:]); version != BinaryFormatVersion {
		return nil, Header{}, fmt.Errorf("%w: binary version %d (want %d)", ErrBadHeader, version, BinaryFormatVersion)
	}
	kind, payload, err := ReadRecord(br, nil, maxBinaryRecord)
	if err != nil || kind != recHeader {
		return nil, Header{}, fmt.Errorf("%w: missing header record", ErrBadHeader)
	}
	var header Header
	if err := json.Unmarshal(payload, &header); err != nil {
		return nil, Header{}, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if header.Version != FormatVersion {
		return nil, Header{}, fmt.Errorf("%w: version %d (want %d)", ErrBadHeader, header.Version, FormatVersion)
	}
	return &binaryReader{br: br}, header, nil
}

// next returns the next frame record, or io.EOF at a clean end.
func (b *binaryReader) next() (*Frame, error) {
	return ReadFrameRecord(b.br)
}

// FrameRecordBuffered reports whether br already holds one complete
// frame record (or enough of a corrupt one to fail without further
// reads), so a streaming consumer can greedily drain records that have
// arrived without blocking on the network for the next one.
func FrameRecordBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 1+4+4 {
		return false
	}
	hdr, err := br.Peek(5)
	if err != nil {
		return false
	}
	plen := int(binary.LittleEndian.Uint32(hdr[1:5]))
	if plen > maxBinaryRecord {
		return true // ReadFrameRecord rejects the length without blocking
	}
	return n >= 1+4+plen+4
}
