package roboads_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§V), plus microbenchmarks of the estimator hot path and
// ablation benchmarks for the design choices called out in DESIGN.md §5.
//
// The experiment benchmarks run complete missions per iteration, so they
// measure end-to-end regeneration cost; quality metrics (FPR, FNR,
// delay) are attached with b.ReportMetric so `go test -bench` output
// doubles as a results table.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"roboads"
	"roboads/internal/attack"
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/dynamics"
	"roboads/internal/eval"
	"roboads/internal/fleet"
	"roboads/internal/mat"
	"roboads/internal/robot"
	"roboads/internal/scenario"
	"roboads/internal/sensors"
	"roboads/internal/stat"
	"roboads/internal/store"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
	"roboads/internal/world"
)

// --- microbenchmarks: estimator hot path ----------------------------------

func benchPlant() (core.Plant, *dynamics.DifferentialDrive, []sensors.Sensor) {
	model := dynamics.NewKhepera(0.1)
	arena := world.NewArena(4, 4)
	suite := []sensors.Sensor{
		sensors.NewIPS(3),
		sensors.NewWheelEncoder(3),
		sensors.NewLidar(arena, 3),
	}
	plant := core.Plant{
		Model:       model,
		Q:           mat.Diag(2.5e-7, 2.5e-7, 1e-6),
		AngleStates: []int{2},
		UMax:        mat.VecOf(0.8, 0.8),
	}
	return plant, model, suite
}

func BenchmarkNUISEStep(b *testing.B) {
	plant, model, suite := benchPlant()
	testing2, err := sensors.NewStacked(suite[1], suite[2])
	if err != nil {
		b.Fatal(err)
	}
	x := mat.VecOf(1, 1, 0.3)
	px := mat.Diag(1e-6, 1e-6, 1e-6)
	u := model.WheelSpeeds(0.12, 0.1)
	xNext := model.F(x, u)
	z2 := suite[0].H(xNext)
	z1 := testing2.H(xNext)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NUISE(plant, suite[0], testing2, u, x, px, z1, z2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineStep(b *testing.B) {
	plant, model, suite := benchPlant()
	x0 := mat.VecOf(1, 1, 0.3)
	u := model.WheelSpeeds(0.12, 0.1)
	modes, err := core.SingleReferenceModes(model, suite, x0, u, false)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6), core.DefaultEngineConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := stat.NewRNG(1)
	xTrue := x0.Clone()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xTrue = model.F(xTrue, u).Add(rng.GaussianVec(mat.VecOf(5e-4, 5e-4, 1e-3)))
		readings := map[string]mat.Vec{}
		for _, s := range suite {
			readings[s.Name()] = s.H(xTrue)
		}
		if _, err := eng.Step(u, readings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStepTelemetry is BenchmarkEngineStep with a live
// telemetry observer attached — the enabled-path overhead pin. The gap
// to BenchmarkEngineStep is the full instrumentation cost (timestamps,
// histogram updates, snapshot upkeep); the benchoverhead CI job holds
// the disabled path (BenchmarkEngineStep itself) to within 5% of the
// recorded baseline.
func BenchmarkEngineStepTelemetry(b *testing.B) {
	plant, model, suite := benchPlant()
	x0 := mat.VecOf(1, 1, 0.3)
	u := model.WheelSpeeds(0.12, 0.1)
	modes, err := core.SingleReferenceModes(model, suite, x0, u, false)
	if err != nil {
		b.Fatal(err)
	}
	tel := telemetry.New(telemetry.Options{})
	cfg := core.DefaultEngineConfig()
	cfg.Observer = tel
	eng, err := core.NewEngine(plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6), cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := stat.NewRNG(1)
	xTrue := x0.Clone()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xTrue = model.F(xTrue, u).Add(rng.GaussianVec(mat.VecOf(5e-4, 5e-4, 1e-3)))
		readings := map[string]mat.Vec{}
		for _, s := range suite {
			readings[s.Name()] = s.H(xTrue)
		}
		if _, err := eng.Step(u, readings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNUISEStepScratch is BenchmarkNUISEStep with a persistent
// scratch arena — the configuration the engine actually runs (one arena
// per mode, reused every iteration). The gap between the two benchmarks
// is the allocation overhead the arena removes.
func BenchmarkNUISEStepScratch(b *testing.B) {
	plant, model, suite := benchPlant()
	testing2, err := sensors.NewStacked(suite[1], suite[2])
	if err != nil {
		b.Fatal(err)
	}
	x := mat.VecOf(1, 1, 0.3)
	px := mat.Diag(1e-6, 1e-6, 1e-6)
	u := model.WheelSpeeds(0.12, 0.1)
	xNext := model.F(x, u)
	z2 := suite[0].H(xNext)
	z1 := testing2.H(xNext)
	sc := mat.NewScratch()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NUISEScratch(plant, suite[0], testing2, u, x, px, z1, z2, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineFleet measures N independent robots (one engine each)
// stepped concurrently — the fleet-scale workload of the ROADMAP north
// star, where parallelism comes from robot count. Reported time is per
// fleet-wide iteration.
func BenchmarkEngineFleet(b *testing.B) {
	for _, robots := range []int{1, 4, 16} {
		robots := robots
		b.Run(fmt.Sprintf("robots=%d", robots), func(b *testing.B) {
			plant, model, suite := benchPlant()
			x0 := mat.VecOf(1, 1, 0.3)
			u := model.WheelSpeeds(0.12, 0.1)
			modes, err := core.SingleReferenceModes(model, suite, x0, u, false)
			if err != nil {
				b.Fatal(err)
			}
			engines := make([]*core.Engine, robots)
			states := make([]mat.Vec, robots)
			rngs := make([]*stat.RNG, robots)
			for r := range engines {
				engines[r], err = core.NewEngine(plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6), core.DefaultEngineConfig())
				if err != nil {
					b.Fatal(err)
				}
				states[r] = x0.Clone()
				rngs[r] = stat.NewRNG(int64(100 + r))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				wg.Add(robots)
				for r := 0; r < robots; r++ {
					r := r
					go func() {
						defer wg.Done()
						states[r] = model.F(states[r], u).Add(rngs[r].GaussianVec(mat.VecOf(5e-4, 5e-4, 1e-3)))
						readings := map[string]mat.Vec{}
						for _, s := range suite {
							readings[s.Name()] = s.H(states[r])
						}
						if _, err := engines[r].Step(u, readings); err != nil {
							panic(err)
						}
					}()
				}
				wg.Wait()
			}
			reportSessionsPerCore(b, robots)
		})
	}
}

// reportSessionsPerCore attaches the fleet-throughput metric:
// session-steps per second per core. Reading it directly beats deriving
// it from ns/op × robots ÷ cores.
func reportSessionsPerCore(b *testing.B, robots int) {
	elapsed := b.Elapsed().Seconds()
	if elapsed <= 0 {
		return
	}
	perCore := float64(robots) * float64(b.N) / elapsed / float64(runtime.GOMAXPROCS(0))
	b.ReportMetric(perCore, "sessions/core")
}

// BenchmarkFleetStep measures the per-frame overhead of the fleet
// session service around a hosted detector: one session stepped
// synchronously through the manager, paying the queue hop, the worker
// scheduling quantum, and the reply future on top of the detector step
// itself (compare BenchmarkDetectorStep for the direct call). The
// engine's own nil-fleet hot path is unaffected by the service layer
// and stays under the 5% `make benchoverhead` gate.
func BenchmarkFleetStep(b *testing.B) {
	mgr, err := fleet.NewManager(fleet.Config{Build: fleet.DefaultBuilder()})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Shutdown(context.Background())
	info, err := mgr.Create(fleet.Spec{Robot: "khepera"})
	if err != nil {
		b.Fatal(err)
	}
	p, err := robot.Named("khepera")
	if err != nil {
		b.Fatal(err)
	}
	rng := stat.NewRNG(7)
	x := p.X0.Clone()
	u := mat.VecOf(0.11, 0.13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = p.Model.F(x, u).Add(rng.GaussianVec(mat.VecOf(5e-4, 5e-4, 1e-3)))
		readings := map[string]mat.Vec{}
		for _, s := range p.Suite {
			readings[s.Name()] = s.H(x)
		}
		if _, err := mgr.Step(context.Background(), info.ID, u, readings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint measures the in-memory cost of one durability
// checkpoint: ExportState on a warmed-up detector plus EncodeSnapshot to
// the versioned wire format. Disk I/O (tmp write, fsync, rename) is
// excluded — it is dominated by the device, not the code path; the fleet
// takes this cost under the session's stepMu, so it bounds how long a
// checkpoint can stall that session's frame processing.
func BenchmarkCheckpoint(b *testing.B) {
	plant, model, suite := benchPlant()
	x0 := mat.VecOf(1, 1, 0.3)
	u := model.WheelSpeeds(0.12, 0.1)
	modes, err := core.SingleReferenceModes(model, suite, x0, u, false)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6), core.DefaultEngineConfig())
	if err != nil {
		b.Fatal(err)
	}
	det := detect.NewDetector(eng, detect.DefaultConfig())
	rng := stat.NewRNG(11)
	xTrue := x0.Clone()
	// Warm up: populate the mode beliefs and decision windows so the
	// snapshot has realistic (full) content.
	for i := 0; i < 50; i++ {
		xTrue = model.F(xTrue, u).Add(rng.GaussianVec(mat.VecOf(5e-4, 5e-4, 1e-3)))
		readings := map[string]mat.Vec{}
		for _, s := range suite {
			readings[s.Name()] = s.H(xTrue)
		}
		if _, err := det.Step(u, readings); err != nil {
			b.Fatal(err)
		}
	}
	snap := &store.Snapshot{
		SessionID: "bench", Robot: "khepera",
		Sensors: []string{"encoder", "ips", "lidar"}, Dt: 0.1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int
	for i := 0; i < b.N; i++ {
		snap.FramesApplied = 50 + i
		snap.State = det.ExportState()
		blob, err := store.EncodeSnapshot(snap)
		if err != nil {
			b.Fatal(err)
		}
		bytes = len(blob)
	}
	b.ReportMetric(float64(bytes), "snapshot-bytes")
}

// BenchmarkWALAppend measures what the shard worker pays per frame to
// log it: serialization and CRC into the session's buffer. The write and
// the fsync that follow are the group commit's, off the worker; one
// Commit every 256 appends, outside the timer, keeps the buffer bounded.
func BenchmarkWALAppend(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ss, err := st.Create("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer ss.Close()
	_, model, suite := benchPlant()
	x0 := mat.VecOf(1, 1, 0.3)
	u := model.WheelSpeeds(0.12, 0.1)
	readings := map[string]mat.Vec{}
	for _, s := range suite {
		readings[s.Name()] = s.H(x0)
	}
	if _, err := ss.WriteSnapshot(&store.Snapshot{
		Robot: "khepera", Sensors: []string{"encoder", "ips", "lidar"}, Dt: 0.1,
		State: &detect.State{Engine: &core.EngineState{}, Decider: &detect.DeciderState{}},
	}); err != nil {
		b.Fatal(err)
	}
	frame := &trace.Frame{U: []float64(u), Readings: map[string][]float64{}}
	for name, z := range readings {
		frame.Readings[name] = []float64(z)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame.K = i
		if err := ss.Append(frame); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 {
			b.StopTimer()
			if err := ss.Commit(256); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkIngestE2E drives the full durable ingest loop over real
// HTTP — POST, wire decode, detector step, WAL append, fsync, ack —
// in two shapes: one JSON frame per /step request, each waiting for its
// own fsync (the compatibility baseline: the default commit window, no
// pace), and a binary /frames stream batched by the server under a 2 ms
// commit window. The reported frames/s is the client-observed
// acknowledged throughput; the reply-after-fsync contract holds in both,
// so the ratio is the pure win of batching + binary framing + fsync
// amortization.
func BenchmarkIngestE2E(b *testing.B) {
	p, err := robot.Named("khepera")
	if err != nil {
		b.Fatal(err)
	}
	u := mat.VecOf(0.11, 0.13)
	frame := &trace.Frame{U: []float64(u), Readings: map[string][]float64{}}
	for _, s := range p.Suite {
		frame.Readings[s.Name()] = []float64(s.H(p.X0))
	}

	serve := func(b *testing.B, d fleet.Durability) (*httptest.Server, string) {
		b.Helper()
		d.Dir = b.TempDir()
		mgr, err := fleet.NewManager(fleet.Config{Build: fleet.DefaultBuilder(), Durability: d})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { mgr.Shutdown(context.Background()) })
		srv := httptest.NewServer(mgr.Handler())
		b.Cleanup(srv.Close)
		info, err := mgr.Create(fleet.Spec{Robot: "khepera"})
		if err != nil {
			b.Fatal(err)
		}
		return srv, info.ID
	}

	b.Run("per-frame-json-fsync", func(b *testing.B) {
		srv, id := serve(b, fleet.Durability{})
		body, err := json.Marshal(frame)
		if err != nil {
			b.Fatal(err)
		}
		url := srv.URL + "/v1/sessions/" + id + "/step"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var line fleet.ReplyLine
			derr := json.NewDecoder(resp.Body).Decode(&line)
			resp.Body.Close()
			if derr != nil {
				b.Fatal(derr)
			}
			if line.Error != "" || line.Report == nil {
				b.Fatalf("frame %d: %q", i, line.Error)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	})

	b.Run("batch-binary-group-commit", func(b *testing.B) {
		srv, id := serve(b, fleet.Durability{CommitWindow: 2 * time.Millisecond})
		var body bytes.Buffer
		for i := 0; i < b.N; i++ {
			frame.K = i
			body.Write(trace.AppendFrameRecord(nil, frame))
		}
		url := srv.URL + "/v1/sessions/" + id + "/frames"
		b.ResetTimer()
		resp, err := http.Post(url, fleet.ContentTypeBinaryFrames, &body)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		acked := 0
		for sc.Scan() {
			var line fleet.ReplyLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				b.Fatal(err)
			}
			if line.Error != "" || line.Report == nil {
				b.Fatalf("frame %d: %q", acked, line.Error)
			}
			acked++
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		if acked != b.N {
			b.Fatalf("acked %d of %d frames", acked, b.N)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	})

	// fleet16: sixteen same-profile sessions each streaming b.N binary
	// frames concurrently under group commit, each session stepped on its
	// own — HTTP, WAL, and fsync costs included.
	b.Run("fleet16-scalar", func(b *testing.B) {
		const sessions = 16
		mgr, err := fleet.NewManager(fleet.Config{
			Build:      fleet.DefaultBuilder(),
			Durability: fleet.Durability{Dir: b.TempDir(), CommitWindow: 2 * time.Millisecond},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { mgr.Shutdown(context.Background()) })
		srv := httptest.NewServer(mgr.Handler())
		b.Cleanup(srv.Close)
		ids := make([]string, sessions)
		for s := range ids {
			info, err := mgr.Create(fleet.Spec{Robot: "khepera"})
			if err != nil {
				b.Fatal(err)
			}
			ids[s] = info.ID
		}
		var record []byte
		for i := 0; i < b.N; i++ {
			frame.K = i
			record = trace.AppendFrameRecord(record, frame)
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		errs := make([]error, sessions)
		for s := range ids {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				resp, err := http.Post(srv.URL+"/v1/sessions/"+ids[s]+"/frames",
					fleet.ContentTypeBinaryFrames, bytes.NewReader(record))
				if err != nil {
					errs[s] = err
					return
				}
				defer resp.Body.Close()
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
				acked := 0
				for sc.Scan() {
					var line fleet.ReplyLine
					if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
						errs[s] = err
						return
					}
					if line.Error != "" || line.Report == nil {
						errs[s] = fmt.Errorf("frame %d: %q", acked, line.Error)
						return
					}
					acked++
				}
				if errs[s] = sc.Err(); errs[s] == nil && acked != b.N {
					errs[s] = fmt.Errorf("acked %d of %d frames", acked, b.N)
				}
			}(s)
		}
		wg.Wait()
		for s, err := range errs {
			if err != nil {
				b.Fatalf("session %d: %v", s, err)
			}
		}
		b.ReportMetric(float64(sessions)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	})
}

func BenchmarkDetectorStep(b *testing.B) {
	plant, model, suite := benchPlant()
	x0 := mat.VecOf(1, 1, 0.3)
	u := model.WheelSpeeds(0.12, 0.1)
	modes, err := core.SingleReferenceModes(model, suite, x0, u, false)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6), core.DefaultEngineConfig())
	if err != nil {
		b.Fatal(err)
	}
	det := detect.NewDetector(eng, detect.DefaultConfig())
	rng := stat.NewRNG(2)
	xTrue := x0.Clone()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xTrue = model.F(xTrue, u).Add(rng.GaussianVec(mat.VecOf(5e-4, 5e-4, 1e-3)))
		readings := map[string]mat.Vec{}
		for _, s := range suite {
			readings[s.Name()] = s.H(xTrue)
		}
		if _, err := det.Step(u, readings); err != nil {
			b.Fatal(err)
		}
	}
}

// replaySuite generates BenchmarkSuiteReplay's missions once: the harness
// calls a benchmark function once per b.N it tries.
var replaySuite = sync.OnceValues(func() ([]*suiteMission, error) { return generateSuite(42) })

// BenchmarkSuiteReplay is bench/'s detect_replay workload as a Go
// benchmark, so it can be profiled (make profile-replay): the 26
// missions of scenario.Default(42) are generated once, and each
// iteration replays all of them through a fresh detector per mission — mat, core and detect do all the timed work.
func BenchmarkSuiteReplay(b *testing.B) {
	missions, err := replaySuite()
	if err != nil {
		b.Fatal(err)
	}
	frames := 0
	for _, m := range missions {
		frames += len(m.recs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range missions {
			det, err := m.prof.NewDetector(core.DefaultEngineConfig(), detect.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			for _, rec := range m.recs {
				if _, err := det.Step(rec.UPlanned, rec.Readings); err != nil {
					b.Fatalf("%s k=%d: %v", m.name, rec.K, err)
				}
			}
		}
	}
	b.ReportMetric(float64(frames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// generateSeed is the seed of BenchmarkSuiteGenerate's next trial. It
// counts across the benchmark's runs, since b.N restarts from 1 for each.
var generateSeed int64 = 42

// BenchmarkSuiteGenerate is the other half of an evaluation trial, what
// bench/'s detect_replay pays as setup_s before it can replay anything:
// generating the 26 missions of scenario.Default — the trial's two plans
// (lab and warehouse; the other scenarios reuse them through sim's plan
// memo), then the closed-loop simulator stepped to completion with no
// detector attached. Each iteration takes a seed of its own (42, 43, …),
// so it times one cold trial, as make profile-generate profiles it.
func BenchmarkSuiteGenerate(b *testing.B) {
	b.ReportAllocs()
	missions, frames := 0, 0
	for i := 0; i < b.N; i++ {
		suite, err := generateSuite(generateSeed)
		generateSeed++
		if err != nil {
			b.Fatal(err)
		}
		missions += len(suite)
		for _, m := range suite {
			frames += len(m.recs)
		}
	}
	b.ReportMetric(float64(missions)/b.Elapsed().Seconds(), "missions/s")
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

// --- Table II: one benchmark per attack/failure scenario -------------------

func BenchmarkTable2(b *testing.B) {
	for _, sc := range attack.KheperaScenarios() {
		b.Run(fmt.Sprintf("scenario%02d", sc.ID), func(b *testing.B) {
			var sensorFNR, actuatorFNR float64
			for i := 0; i < b.N; i++ {
				run, err := kheperaRun(sc, 42+int64(i), scenario.DefaultDetector)
				if err != nil {
					b.Fatal(err)
				}
				sensorFNR = run.SensorConfusion().FNR()
				actuatorFNR = run.ActuatorConfusion().FNR()
			}
			b.ReportMetric(100*sensorFNR, "sensorFNR%")
			b.ReportMetric(100*actuatorFNR, "actuatorFNR%")
		})
	}
}

// --- Table IV ---------------------------------------------------------------

func BenchmarkTable4(b *testing.B) {
	var fusionVar float64
	for i := 0; i < b.N; i++ {
		result, err := eval.Table4(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if err := result.Shape(); err != nil {
			b.Fatal(err)
		}
		fusionVar = result.Rows[3].VarVl
	}
	b.ReportMetric(fusionVar*1e5, "fusionVar1e-5")
}

// --- Fig 6 ------------------------------------------------------------------

func BenchmarkFig6(b *testing.B) {
	var points int
	for i := 0; i < b.N; i++ {
		result, err := eval.Fig6(42 + int64(i))
		if err != nil {
			b.Fatal(err)
		}
		points = len(result.Points)
	}
	b.ReportMetric(float64(points), "series-points")
}

// --- Fig 7: ROC and F1 sweeps ------------------------------------------------

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := eval.Fig7Workload(1, 7+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, side := range []bool{true, false} {
			roc, err := eval.Fig7ROC(runs, side)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				name := "sensorAUC"
				if !side {
					name = "actuatorAUC"
				}
				b.ReportMetric(roc.Curves[0].AUC, name)
			}
			if _, err := eval.Fig7F1(runs, side); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- §V-D Tamiya -------------------------------------------------------------

func BenchmarkTamiya(b *testing.B) {
	var fpr, fnr float64
	for i := 0; i < b.N; i++ {
		result, err := eval.Tamiya(1, 9+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		fpr, fnr = result.AvgFPR, result.AvgFNR
	}
	b.ReportMetric(100*fpr, "FPR%")
	b.ReportMetric(100*fnr, "FNR%")
}

// --- §V-G linear baseline ------------------------------------------------------

func BenchmarkLinearBaseline(b *testing.B) {
	var linFPR, adsFPR float64
	for i := 0; i < b.N; i++ {
		result, err := eval.LinearBench(1, 5+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		linFPR, adsFPR = result.LinearSensorFPR, result.RoboADSSensorFPR
	}
	b.ReportMetric(100*linFPR, "linearFPR%")
	b.ReportMetric(100*adsFPR, "roboadsFPR%")
}

// --- §V-H evasive attacks -------------------------------------------------------

func BenchmarkEvasive(b *testing.B) {
	var ips, units float64
	for i := 0; i < b.N; i++ {
		result, err := eval.Evasive(3 + int64(i))
		if err != nil {
			b.Fatal(err)
		}
		ips, units = result.MaxStealthyIPSMeters, result.MaxStealthyActuatorUnits
	}
	b.ReportMetric(ips*1000, "stealthyIPSmm")
	b.ReportMetric(units, "stealthyUnits")
}

// --- ablations (DESIGN.md §5) ----------------------------------------------------

// BenchmarkAblationModeSet compares the paper's linear single-reference
// mode set against the exponential complete set (§VI "Mode set
// selection"): the complete set costs ~2.3× per step for three sensors
// and grows as 2^p.
func BenchmarkAblationModeSet(b *testing.B) {
	for _, setName := range []string{"single-reference", "complete"} {
		setName := setName
		b.Run(setName, func(b *testing.B) {
			plant, model, suite := benchPlant()
			x0 := mat.VecOf(1, 1, 0.3)
			u := model.WheelSpeeds(0.12, 0.1)
			var modes []*core.Mode
			var err error
			if setName == "complete" {
				modes, err = core.CompleteModes(model, suite, x0, u)
			} else {
				modes, err = core.SingleReferenceModes(model, suite, x0, u, false)
			}
			if err != nil {
				b.Fatal(err)
			}
			eng, err := core.NewEngine(plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6), core.DefaultEngineConfig())
			if err != nil {
				b.Fatal(err)
			}
			rng := stat.NewRNG(3)
			xTrue := x0.Clone()
			b.ReportMetric(float64(len(modes)), "modes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xTrue = model.F(xTrue, u).Add(rng.GaussianVec(mat.VecOf(5e-4, 5e-4, 1e-3)))
				readings := map[string]mat.Vec{}
				for _, s := range suite {
					readings[s.Name()] = s.H(xTrue)
				}
				if _, err := eng.Step(u, readings); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDensityWeighting compares the default p-value mode
// weighting against the paper-literal Gaussian density (which is biased
// toward fine-grained reference sensors; see EngineConfig) on scenario
// #5, reporting the resulting sensor FPR.
func BenchmarkAblationDensityWeighting(b *testing.B) {
	for _, byDensity := range []bool{false, true} {
		byDensity := byDensity
		name := "pvalue"
		if byDensity {
			name = "density"
		}
		b.Run(name, func(b *testing.B) {
			var fpr float64
			for i := 0; i < b.N; i++ {
				run, err := runWithEngineConfig(attack.KheperaScenarios()[4], 42, byDensity)
				if err != nil {
					b.Fatal(err)
				}
				fpr = run.SensorConfusion().FPR()
			}
			b.ReportMetric(100*fpr, "sensorFPR%")
		})
	}
}

// kheperaRun flies one Khepera lab mission through the mission runner.
func kheperaRun(sc attack.Scenario, seed int64, build func(robot.Profile) (*detect.Detector, error)) (*scenario.Run, error) {
	return scenario.RunMission("khepera", "lab", sc, seed, scenario.MaxIterations, build)
}

func runWithEngineConfig(sc attack.Scenario, seed int64, byDensity bool) (*scenario.Run, error) {
	return kheperaRun(sc, seed, func(p robot.Profile) (*detect.Detector, error) {
		plant := core.Plant{
			Model:       p.Model,
			Q:           mat.Diag(2.5e-7, 2.5e-7, 1e-6),
			AngleStates: []int{2},
			UMax:        robot.KheperaUMax(),
		}
		modes, err := core.SingleReferenceModes(p.Model, p.Suite, p.X0, p.ObsU0, false)
		if err != nil {
			return nil, err
		}
		ecfg := core.DefaultEngineConfig()
		ecfg.WeightByDensity = byDensity
		eng, err := core.NewEngine(plant, modes, p.X0, mat.Diag(1e-6, 1e-6, 1e-6), ecfg)
		if err != nil {
			return nil, err
		}
		return detect.NewDetector(eng, detect.DefaultConfig()), nil
	})
}

// BenchmarkAblationSlidingWindow compares detection with and without the
// sliding windows (c/w = 1/1 disables them), reporting the clean-run
// false positive rates that the windows exist to suppress (§IV-D).
func BenchmarkAblationSlidingWindow(b *testing.B) {
	configs := map[string]detect.Config{
		"windowed": detect.DefaultConfig(),
		"raw": {
			SensorAlpha: 0.005, SensorWindow: 1, SensorCriteria: 1,
			ActuatorAlpha: 0.05, ActuatorWindow: 1, ActuatorCriteria: 1,
		},
	}
	for name, cfg := range configs {
		name, cfg := name, cfg
		b.Run(name, func(b *testing.B) {
			var fpr float64
			for i := 0; i < b.N; i++ {
				run, err := kheperaRun(attack.CleanScenario(), 42+int64(i), func(p robot.Profile) (*detect.Detector, error) {
					return p.NewDetector(core.DefaultEngineConfig(), cfg)
				})
				if err != nil {
					b.Fatal(err)
				}
				fpr = run.ActuatorConfusion().FPR()
			}
			b.ReportMetric(100*fpr, "actuatorFPR%")
		})
	}
}

// BenchmarkQuickstartMission measures the full public-API closed loop.
func BenchmarkQuickstartMission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		system, err := roboads.NewKheperaSystem(roboads.CleanScenario(), int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		for {
			rec, _, err := system.Step()
			if err != nil {
				break
			}
			if rec.Done {
				break
			}
		}
	}
}

// BenchmarkAblationAttackPrior measures the testing-sensor/actuator
// evidence terms (EngineConfig.AttackPrior/ActuatorPrior): without them,
// the post-absorption hypothesis symmetry lets the corrupted-reference
// mode flip-flop with the truth on the two-sensor scenarios. Reported
// metric: scenario #11 sensor FPR.
func BenchmarkAblationAttackPrior(b *testing.B) {
	for _, withEvidence := range []bool{true, false} {
		withEvidence := withEvidence
		name := "with-evidence"
		if !withEvidence {
			name = "without-evidence"
		}
		b.Run(name, func(b *testing.B) {
			var fpr float64
			for i := 0; i < b.N; i++ {
				build := func(p robot.Profile) (*detect.Detector, error) {
					plant := core.Plant{
						Model:       p.Model,
						Q:           mat.Diag(2.5e-7, 2.5e-7, 1e-6),
						AngleStates: []int{2},
						UMax:        robot.KheperaUMax(),
					}
					modes, err := core.SingleReferenceModes(p.Model, p.Suite, p.X0, p.ObsU0, false)
					if err != nil {
						return nil, err
					}
					ecfg := core.DefaultEngineConfig()
					if !withEvidence {
						ecfg.AttackPrior = 0
						ecfg.ActuatorPrior = 0
					}
					eng, err := core.NewEngine(plant, modes, p.X0, mat.Diag(1e-6, 1e-6, 1e-6), ecfg)
					if err != nil {
						return nil, err
					}
					return detect.NewDetector(eng, detect.DefaultConfig()), nil
				}
				run, err := kheperaRun(attack.KheperaScenarios()[10], 5+int64(i), build)
				if err != nil {
					b.Fatal(err)
				}
				fpr = run.SensorConfusion().FPR()
			}
			b.ReportMetric(100*fpr, "scenario11FPR%")
		})
	}
}

// BenchmarkAblationCompensation measures challenge 2 of §IV-B: without
// compensating the state prediction with d̂a, an active actuator attack
// corrupts the state estimate and the testing sensors get falsely
// blamed. It has one arm, the compensated production path; there is no
// switch to turn the compensation off yet, so the uncompensated arm the
// ablation needs is missing. Reported metric: scenario #1 sensor FPR
// (should be ≈0 with compensation).
func BenchmarkAblationCompensation(b *testing.B) {
	b.Run("compensated", func(b *testing.B) {
		var fpr float64
		for i := 0; i < b.N; i++ {
			run, err := kheperaRun(attack.KheperaScenarios()[0], 42+int64(i), scenario.DefaultDetector)
			if err != nil {
				b.Fatal(err)
			}
			fpr = run.SensorConfusion().FPR()
		}
		b.ReportMetric(100*fpr, "scenario1FPR%")
	})
}
