package store

import (
	"bytes"
	"testing"

	"roboads/internal/trace"
)

// FuzzDecodeSnapshot drives the snapshot decoder with arbitrary bytes:
// it must reject everything malformed with an error — truncations,
// bit flips, version skew, hostile length fields — and never panic.
// Accepted inputs must survive a re-encode/re-decode cycle. (Byte
// equality is deliberately not asserted: the decoder accepts any
// CRC-valid JSON payload, canonical or not.)
func FuzzDecodeSnapshot(f *testing.F) {
	valid, err := EncodeSnapshot(testSnapshot(12))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	truncVersion := append([]byte(nil), valid...)
	truncVersion[6] = 0xFF
	f.Add(truncVersion)
	f.Add([]byte("RBSNAP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		again, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		snap2, err := DecodeSnapshot(again)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if snap2.SessionID != snap.SessionID || snap2.FramesApplied != snap.FramesApplied {
			t.Fatalf("snapshot changed across re-encode: %+v vs %+v", snap2, snap)
		}
	})
}

// FuzzDecodeWALRecord drives the log's record envelope decoder with
// arbitrary bytes: it must reject or accept, never panic, and an accepted
// record's payload and length must lie within the input.
func FuzzDecodeWALRecord(f *testing.F) {
	rec, err := appendRecord(nil, "s-000001", 1, testFrame(0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	f.Add(rec[:len(rec)/2])
	f.Add([]byte{recordMarker, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n := openRecord(data)
		if n != 0 && (n > len(data) || len(payload) != n-recordOverhead) {
			t.Fatalf("accepted record of %d bytes with a %d-byte payload in %d bytes of input", n, len(payload), len(data))
		}
	})
}

// FuzzDecodeLog feeds arbitrary bytes to the shared-log decoder: it must
// never panic, and the prefix it accepts must re-encode, record by
// record, to the very bytes it was decoded from (for the canonical frame
// encoding, which is all the writer produces: the decoder accepts any
// CRC-valid payload).
func FuzzDecodeLog(f *testing.F) {
	var log []byte
	for i, id := range []string{"s-000001", "s-000002", "s-000001", "r-9f", "s-000002"} {
		var err error
		if log, err = appendRecord(log, id, 1+i/2, testFrame(i)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(log)
	f.Add(log[:len(log)-7])
	f.Add(append(append([]byte(nil), log...), "garbage tail"...))
	flipped := append([]byte(nil), log...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	foreign := append([]byte(nil), log...)
	foreign[0] = 0xB2 // a valid envelope under another marker
	f.Add(foreign)
	f.Add([]byte{recordMarker, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := 0
		valid := scanLog(data, func(off, n int, id []byte, seq int, raw []byte) {
			if off != next || n <= 0 || off+n > len(data) {
				t.Fatalf("record at %d+%d after a prefix of %d in %d bytes", off, n, next, len(data))
			}
			next = off + n
			frame, err := trace.DecodeFrameBinary(raw)
			if err != nil || !bytes.Equal(trace.AppendFrameBinary(nil, frame), raw) {
				return // not a frame the writer could have produced
			}
			again, err := appendRecord(nil, string(id), seq, frame)
			if err != nil {
				t.Fatalf("accepted record failed to re-encode: %v", err)
			}
			if !bytes.Equal(again, data[off:off+n]) {
				t.Fatalf("record at %d re-encodes to different bytes", off)
			}
		})
		if valid != next {
			t.Fatalf("accepted prefix %d, records end at %d", valid, next)
		}
	})
}
