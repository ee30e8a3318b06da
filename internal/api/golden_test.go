package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"roboads/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the wire golden file")

// wireSamples is one fully populated instance of every /v1 wire struct,
// in a fixed field order so the rendering is deterministic. The golden
// file pins the JSON names, the omitempty behavior (each pair below has
// a populated and a zero-heavy variant), and the base64 encoding of
// byte fields — any accidental rename or type change diffs loudly.
type wireSamples struct {
	WireReport      WireReport      `json:"wireReport"`
	WireReportQuiet WireReport      `json:"wireReportQuiet"`
	CreateRequest   CreateRequest   `json:"createRequest"`
	CreateMinimal   CreateRequest   `json:"createMinimal"`
	SessionInfo     SessionInfo     `json:"sessionInfo"`
	SessionStatus   SessionStatus   `json:"sessionStatus"`
	CheckpointInfo  CheckpointInfo  `json:"checkpointInfo"`
	ReplyOK         ReplyLine       `json:"replyOk"`
	ReplyError      ReplyLine       `json:"replyError"`
	MigrateRequest  MigrateRequest  `json:"migrateRequest"`
	MigrateResponse MigrateResponse `json:"migrateResponse"`
	ImportRequest   ImportRequest   `json:"importRequest"`
	ReplHello       ReplHello       `json:"replHello"`
	ReplSnapshot    ReplRecord      `json:"replSnapshot"`
	ReplFrame       ReplRecord      `json:"replFrame"`
	ReplSessions    ReplRecord      `json:"replSessions"`
	ReplPing        ReplRecord      `json:"replPing"`
	ReplAck         ReplAck         `json:"replAck"`
	ErrorFull       Error           `json:"errorFull"`
	ErrorBare       Error           `json:"errorBare"`
}

func sampleFrame() *trace.Frame {
	return &trace.Frame{
		K:        7,
		TNanos:   700_000_000,
		U:        []float64{0.25, -0.125},
		Readings: map[string][]float64{"ips": {1.5, 2.5, 0.0625}},
	}
}

func samples() wireSamples {
	report := WireReport{
		K: 7, Mode: "nominal", Condition: "S{ips}/A0",
		SensorStat: 3.25, SensorThreshold: 9.4877, SensorAlarm: true,
		ActuatorStat: 0.5, ActuatorThreshold: 6.25,
		X:       []float64{0.1, -0.2, 0.3},
		Weights: []float64{0.9, 0.0625, 0.0375},
		Da:      []float64{0.01, -0.02}, DaValid: true,
	}
	return wireSamples{
		WireReport: report,
		// Alarm-free frame: the omitempty booleans and Da must vanish.
		WireReportQuiet: WireReport{
			K: 8, Mode: "nominal", Condition: "nominal",
			SensorStat: 1.0, SensorThreshold: 9.4877,
			ActuatorStat: 0.25, ActuatorThreshold: 6.25,
			X: []float64{0.0}, Weights: []float64{1.0},
		},
		CreateRequest: CreateRequest{Robot: "khepera", ID: "mn-0042"},
		CreateMinimal: CreateRequest{Restore: "s-000001"},
		SessionInfo:   SessionInfo{ID: "s-000001", Robot: "khepera", Sensors: []string{"ips", "imu"}, Dt: 0.1},
		SessionStatus: SessionStatus{
			SessionInfo:   SessionInfo{ID: "s-000001", Robot: "khepera", Sensors: []string{"ips"}, Dt: 0.1},
			QueueDepth:    3,
			IdleSeconds:   1.5,
			FramesApplied: 90,
			Node:          "http://127.0.0.1:8081",
		},
		CheckpointInfo:  CheckpointInfo{SessionID: "s-000001", FramesApplied: 90, SnapshotBytes: 4096},
		ReplyOK:         ReplyLine{K: 7, Report: &report},
		ReplyError:      ReplyLine{K: 8, Error: "queue full", Code: CodeBackpressure, Closed: true, RetryAfterMs: 25},
		MigrateRequest:  MigrateRequest{Target: "http://127.0.0.1:8082"},
		MigrateResponse: MigrateResponse{SessionID: "s-000001", Target: "http://127.0.0.1:8082", FramesApplied: 45},
		ImportRequest:   ImportRequest{Snapshot: []byte("snapshot-envelope"), Frames: []*trace.Frame{sampleFrame()}},
		ReplHello:       ReplHello{Cursors: map[string]int{"s-000001": 45}},
		ReplSnapshot:    ReplRecord{Type: "snapshot", Session: "s-000001", Seq: 32, Snapshot: []byte("snapshot-envelope")},
		ReplFrame:       ReplRecord{Type: "frame", Session: "s-000001", Seq: 33, Frame: sampleFrame()},
		ReplSessions:    ReplRecord{Type: "sessions", Sessions: []string{"s-000001", "mn-0042"}},
		ReplPing:        ReplRecord{Type: "ping"},
		ReplAck:         ReplAck{Session: "s-000001", Seq: 33},
		ErrorFull: Error{
			Message:      "fleet: session s-000001 moved",
			Code:         CodeMoved,
			RetryAfterMs: 50,
			Location:     "http://127.0.0.1:8082",
			Status:       410, // json:"-": must NOT appear in the golden file
		},
		ErrorBare: Error{Message: "fleet: unknown robot", Code: CodeBadRequest},
	}
}

// TestWireGolden pins the JSON rendering of every /v1 wire struct
// against testdata/wire.golden.json. A failure means the wire contract
// changed: if that is intentional and append-only, regenerate with
//
//	go test ./internal/api -run TestWireGolden -update
//
// and review the diff like any other contract change.
func TestWireGolden(t *testing.T) {
	got, err := json.MarshalIndent(samples(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "wire.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire rendering diverged from %s (regenerate with -update if intended)\ngot:\n%s", path, got)
	}
}

// TestWireRoundTrip guards the other direction: the golden bytes decode
// back into structurally identical values, so no field is write-only.
func TestWireRoundTrip(t *testing.T) {
	want := samples()
	want.ErrorFull.Status = 0 // json:"-" never round-trips
	data, err := json.Marshal(samples())
	if err != nil {
		t.Fatal(err)
	}
	var got wireSamples
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip diverged:\nwant %s\ngot  %s", a, b)
	}
}
