package api

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"roboads/internal/trace"
)

// replySamples are the reply lines the golden file pins, in file order:
// a success line with every optional part present, a success line with
// DaValid false (no Da, no alarms), a per-frame error line, and a
// terminal closed line.
func replySamples() []ReplyLine {
	s := samples()
	return []ReplyLine{
		s.ReplyOK,
		{K: 8, Report: &s.WireReportQuiet},
		{K: 9, Error: "core: frame shape mismatch: command has 1 values, want 2", Code: CodeBadRequest},
		s.ReplyError,
	}
}

// TestReplyRecordGolden pins the reply record's bytes the way
// TestWireGolden pins the JSON: one hex line per sample in
// testdata/replyrecord.golden.hex. Regenerate with -update only for an
// intended, versioned change of the record layout.
func TestReplyRecordGolden(t *testing.T) {
	var got strings.Builder
	for _, line := range replySamples() {
		got.WriteString(hex.EncodeToString(AppendReplyRecord(nil, &line)))
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "replyrecord.golden.hex")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("reply records diverged from %s (regenerate with -update if intended)\ngot:\n%s", path, got.String())
	}
}

// TestReplyRecordMatchesNDJSON: a line that crossed the record wire is
// reflect.DeepEqual to the same line after crossing the NDJSON wire, and
// the values JSON cannot carry (−0 keeps its sign there, NaN and ±Inf do
// not encode at all) cross the record wire bit for bit.
func TestReplyRecordMatchesNDJSON(t *testing.T) {
	var stream []byte
	for _, line := range replySamples() {
		stream = AppendReplyRecord(stream, &line)
	}
	rr := NewReplyReader(bytes.NewReader(stream))
	for i, line := range replySamples() {
		data, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON ReplyLine
		if err := json.Unmarshal(data, &viaJSON); err != nil {
			t.Fatal(err)
		}
		got, err := rr.Read()
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, viaJSON) {
			t.Fatalf("sample %d:\nrecord %+v %+v\nndjson %+v %+v", i, got, got.Report, viaJSON, viaJSON.Report)
		}
	}
	if _, err := rr.Read(); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}

	odd := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8dead0000beef)}
	line := ReplyLine{K: -3, RetryAfterMs: math.MinInt64, Report: &WireReport{K: math.MaxInt64, X: odd, SensorStat: odd[0], ActuatorThreshold: odd[4]}}
	got, err := NewReplyReader(bytes.NewReader(AppendReplyRecord(nil, &line))).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.K != line.K || got.RetryAfterMs != line.RetryAfterMs || got.Report.K != line.Report.K ||
		math.Float64bits(got.Report.SensorStat) != math.Float64bits(odd[0]) ||
		math.Float64bits(got.Report.ActuatorThreshold) != math.Float64bits(odd[4]) ||
		got.Report.Weights != nil || got.Report.Da != nil {
		t.Fatalf("got %+v %+v", got, got.Report)
	}
	for i, v := range odd {
		if math.Float64bits(got.Report.X[i]) != math.Float64bits(v) {
			t.Fatalf("x[%d] = %x, want %x", i, math.Float64bits(got.Report.X[i]), math.Float64bits(v))
		}
	}
}

// TestReplyRecordCorruption: every torn prefix and every single-bit flip
// of a two-record stream reads as an error wrapping trace.ErrCorrupt (or,
// for a cut exactly between records, a clean io.EOF after the first) —
// never as a short or wrong ReplyLine.
func TestReplyRecordCorruption(t *testing.T) {
	lines := replySamples()[:2]
	first := AppendReplyRecord(nil, &lines[0])
	stream := AppendReplyRecord(append([]byte(nil), first...), &lines[1])
	readAll := func(data []byte) ([]ReplyLine, error) {
		rr := NewReplyReader(bytes.NewReader(data))
		var out []ReplyLine
		for {
			line, err := rr.Read()
			if err != nil {
				return out, err
			}
			out = append(out, line)
		}
	}
	check := func(what string, data []byte) {
		got, err := readAll(data)
		for i := range got {
			if !reflect.DeepEqual(got[i], lines[i]) {
				t.Fatalf("%s: record %d decoded wrong: %+v", what, i, got[i])
			}
		}
		clean := len(data) == 0 || len(data) == len(first)
		if clean && err != io.EOF || !clean && !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("%s: %d records then %v", what, len(got), err)
		}
		if !clean && len(got) == len(lines) {
			t.Fatalf("%s: damaged stream decoded in full", what)
		}
	}
	for cut := 0; cut < len(stream); cut++ {
		check("cut", stream[:cut])
	}
	for bit := 0; bit < 8*len(stream); bit++ {
		flipped := append([]byte(nil), stream...)
		flipped[bit/8] ^= 1 << (bit % 8)
		check("flip", flipped)
	}

	// Well-formed envelopes around payloads the decoder must refuse.
	envelope := func(kind byte, payload []byte) []byte {
		dst, at := trace.BeginRecord(nil, kind)
		return trace.EndRecord(append(dst, payload...), at)
	}
	payload := first[5 : len(first)-4]
	for what, data := range map[string][]byte{
		"frame kind":     envelope(0x02, payload),
		"empty payload":  envelope(trace.RecReply, nil),
		"unknown flag":   envelope(trace.RecReply, append([]byte{payload[0] | 0x80}, payload[1:]...)),
		"alarm, no body": envelope(trace.RecReply, append([]byte{replySensorAlarm}, make([]byte, 20)...)),
		"trailing byte":  envelope(trace.RecReply, append(append([]byte(nil), payload...), 0)),
		"vec overruns":   envelope(trace.RecReply, payload[:len(payload)-8]),
	} {
		if got, err := readAll(data); len(got) != 0 || !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("%s: %d records then %v", what, len(got), err)
		}
	}

	// A length bomb costs one read chunk, not the length it declares; a
	// length over the cap is refused before anything is read.
	bomb := []byte{trace.RecReply, 0x00, 0x00, 0x10, 0x00, replyHasReport} // declares 1 MiB, holds 1 byte
	over := append([]byte{trace.RecReply, 0x01, 0x00, 0x10, 0x00}, make([]byte, 1<<20+5)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, errBomb := readAll(bomb)
	_, errOver := readAll(over)
	runtime.ReadMemStats(&after)
	if !errors.Is(errBomb, trace.ErrCorrupt) || !errors.Is(errOver, trace.ErrCorrupt) || !strings.Contains(errOver.Error(), "exceeds") {
		t.Fatalf("length bomb: %v; over the cap: %v", errBomb, errOver)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
		t.Fatalf("two hostile length prefixes allocated %d bytes", grew)
	}
}

// Allocation pins: encoding into a buffer with room allocates nothing;
// decoding allocates only what the ReplyLine hands the caller — for a
// report, the WireReport, its two strings, and one array under X,
// Weights and Da.
func TestReplyRecordAllocs(t *testing.T) {
	line := replySamples()[0]
	buf := AppendReplyRecord(nil, &line)
	if n := testing.AllocsPerRun(100, func() { buf = AppendReplyRecord(buf[:0], &line) }); n != 0 {
		t.Fatalf("encode into a reused buffer: %v allocs/op, want 0", n)
	}
	stream := bytes.Repeat(buf, 201)
	rr := NewReplyReader(bytes.NewReader(stream))
	if _, err := rr.Read(); err != nil { // sizes the payload buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := rr.Read(); err != nil {
			t.Fatal(err)
		}
	}); n != 4 {
		t.Fatalf("decode: %v allocs/op, want 4 (report, mode, condition, floats)", n)
	}
}

// FuzzReadReplyRecord: no input panics; an accepted record re-encodes to
// the bytes it was read from, and its payload buffer is sized by the bytes
// present, not by a declared length (TestReplyRecordCorruption weighs the
// refused length bomb).
func FuzzReadReplyRecord(f *testing.F) {
	for _, line := range replySamples() {
		f.Add(AppendReplyRecord(nil, &line))
	}
	f.Add([]byte{trace.RecReply, 0x00, 0x00, 0x10, 0x00, replyHasReport}) // declares 1 MiB, holds 1 byte
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		rr := &ReplyReader{br: br}
		line, err := rr.Read()
		if err != nil {
			return
		}
		consumed := len(data) - br.Buffered()
		if cap(rr.buf) > consumed+64<<10 {
			t.Fatalf("a %d-byte record grew the payload buffer to %d", consumed, cap(rr.buf))
		}
		if again := AppendReplyRecord(nil, &line); !bytes.Equal(again, data[:consumed]) {
			t.Fatalf("accepted record re-encodes differently:\nread  %x\nwrote %x", data[:consumed], again)
		}
	})
}
