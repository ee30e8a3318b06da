package api

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"roboads/internal/trace"
)

// ContentTypeBinaryReplies is the binary reply wire of
// POST /v1/sessions/{id}/frames. A request that sends its frames as
// ContentTypeBinaryFrames and carries "Accept: application/x-roboads-replies"
// is answered with this Content-Type and one reply record per frame;
// a client must pick its decoder from the response's Content-Type,
// because a server that predates the record answers NDJSON.
//
// A reply record is internal/trace's envelope with kind trace.RecReply
// (kind | payloadLen uint32 | payload | crc32(payload), little-endian
// throughout) around
//
//	flags byte | k int64 | retryAfterMs int64 | error str | code str
//	[ report: k int64 | mode str | condition str
//	  | sensorStat, sensorThreshold, actuatorStat, actuatorThreshold float64
//	  | x vec | weights vec | da vec ]
//
// where str = len uint16 | bytes, vec = count uint32 | float64 bits, and
// the report part is present exactly when the flags say so. Floats cross
// as their IEEE-754 bits, so a ReplyLine decodes to what the NDJSON wire
// yields (an empty vec decodes as nil) and −0 and non-finite values,
// which JSON cannot carry, survive too.
const ContentTypeBinaryReplies = "application/x-roboads-replies"

// maxReplyRecord caps a reply record's payload; a real one is ~250 bytes.
const maxReplyRecord = 1 << 20

// Flag bits of a reply record. The three report booleans are only valid
// next to replyHasReport.
const (
	replyHasReport byte = 1 << iota
	replySensorAlarm
	replyActuatorAlarm
	replyDaValid
	replyClosed
)

var le = binary.LittleEndian

// AppendReplyRecord appends line as one complete reply record to dst and
// returns the extended slice; with capacity in dst it does not allocate.
// Strings longer than 65535 bytes are cut there.
func AppendReplyRecord(dst []byte, line *ReplyLine) []byte {
	dst, payloadAt := trace.BeginRecord(dst, trace.RecReply)
	var flags byte
	if line.Closed {
		flags |= replyClosed
	}
	rep := line.Report
	if rep != nil {
		flags |= replyHasReport
		if rep.SensorAlarm {
			flags |= replySensorAlarm
		}
		if rep.ActuatorAlarm {
			flags |= replyActuatorAlarm
		}
		if rep.DaValid {
			flags |= replyDaValid
		}
	}
	dst = append(dst, flags)
	dst = le.AppendUint64(dst, uint64(line.K))
	dst = le.AppendUint64(dst, uint64(line.RetryAfterMs))
	dst = appendStr(dst, line.Error)
	dst = appendStr(dst, line.Code)
	if rep != nil {
		dst = le.AppendUint64(dst, uint64(rep.K))
		dst = appendStr(dst, rep.Mode)
		dst = appendStr(dst, rep.Condition)
		for _, v := range [...]float64{rep.SensorStat, rep.SensorThreshold, rep.ActuatorStat, rep.ActuatorThreshold} {
			dst = le.AppendUint64(dst, math.Float64bits(v))
		}
		for _, vec := range [...][]float64{rep.X, rep.Weights, rep.Da} {
			dst = le.AppendUint32(dst, uint32(len(vec)))
			for _, v := range vec {
				dst = le.AppendUint64(dst, math.Float64bits(v))
			}
		}
	}
	return trace.EndRecord(dst, payloadAt)
}

func appendStr(dst []byte, s string) []byte {
	s = s[:min(len(s), math.MaxUint16)]
	return append(le.AppendUint16(dst, uint16(len(s))), s...)
}

// ReplyReader decodes the reply records of one response body, reusing
// its payload buffer from record to record.
type ReplyReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewReplyReader returns a ReplyReader over r.
func NewReplyReader(r io.Reader) *ReplyReader {
	return &ReplyReader{br: bufio.NewReader(r)}
}

// Read returns the next reply: io.EOF at a clean end of stream, an error
// wrapping trace.ErrCorrupt for a torn, checksum-failed, oversized,
// non-reply or malformed record. It allocates only what the returned
// ReplyLine references (the report, its strings, one array under its
// three vectors), never more than the bytes the record actually held.
func (r *ReplyReader) Read() (ReplyLine, error) {
	kind, payload, err := trace.ReadRecord(r.br, r.buf, maxReplyRecord)
	if err != nil {
		return ReplyLine{}, err
	}
	r.buf = payload
	if kind != trace.RecReply {
		return ReplyLine{}, fmt.Errorf("%w: record kind 0x%02x (want reply)", trace.ErrCorrupt, kind)
	}
	return decodeReply(payload)
}

// replyCursor walks a reply payload. A read past the end marks it short
// and yields zeros, so decodeReply checks once, at the end.
type replyCursor struct {
	b     []byte
	short bool
}

func (c *replyCursor) bytes(n uint64) []byte {
	if n > uint64(len(c.b)) {
		c.short, c.b = true, nil
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *replyCursor) u64() uint64 {
	if b := c.bytes(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

func (c *replyCursor) str() string {
	if b := c.bytes(2); b != nil {
		return string(c.bytes(uint64(le.Uint16(b))))
	}
	return ""
}

func decodeReply(payload []byte) (ReplyLine, error) {
	if len(payload) == 0 {
		return ReplyLine{}, fmt.Errorf("%w: empty reply record", trace.ErrCorrupt)
	}
	flags, c := payload[0], replyCursor{b: payload[1:]}
	const reportOnly = replySensorAlarm | replyActuatorAlarm | replyDaValid
	if flags&^(replyHasReport|reportOnly|replyClosed) != 0 || (flags&replyHasReport == 0 && flags&reportOnly != 0) {
		return ReplyLine{}, fmt.Errorf("%w: reply flags 0x%02x", trace.ErrCorrupt, flags)
	}
	line := ReplyLine{Closed: flags&replyClosed != 0}
	line.K = int(int64(c.u64()))
	line.RetryAfterMs = int64(c.u64())
	line.Error = c.str()
	line.Code = c.str()
	if flags&replyHasReport != 0 {
		rep := &WireReport{
			SensorAlarm:   flags&replySensorAlarm != 0,
			ActuatorAlarm: flags&replyActuatorAlarm != 0,
			DaValid:       flags&replyDaValid != 0,
		}
		rep.K = int(int64(c.u64()))
		rep.Mode = c.str()
		rep.Condition = c.str()
		for _, v := range [...]*float64{&rep.SensorStat, &rep.SensorThreshold, &rep.ActuatorStat, &rep.ActuatorThreshold} {
			*v = math.Float64frombits(c.u64())
		}
		// One array under the three vectors: what is left of the payload
		// bounds their total length.
		pool := make([]float64, 0, len(c.b)/8)
		for _, vec := range [...]*[]float64{&rep.X, &rep.Weights, &rep.Da} {
			var n uint64
			if b := c.bytes(4); b != nil {
				n = uint64(le.Uint32(b))
			}
			raw, start := c.bytes(8*n), len(pool)
			for i := 0; i < len(raw); i += 8 {
				pool = append(pool, math.Float64frombits(le.Uint64(raw[i:])))
			}
			if len(pool) > start {
				*vec = pool[start:len(pool):len(pool)]
			}
		}
		line.Report = rep
	}
	if c.short || len(c.b) != 0 {
		return ReplyLine{}, fmt.Errorf("%w: reply record of %d bytes is short or has trailing bytes", trace.ErrCorrupt, len(payload))
	}
	return line, nil
}
