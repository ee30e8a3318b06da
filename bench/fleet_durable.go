package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"roboads/internal/fleet"
	"roboads/internal/store"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// Shape of fleet_durable: more sessions than shard workers, so a round
// queues behind the commit barrier (ROADMAP item 1).
const (
	fleetSessions = 16
	roundBatch    = 4 // frames submitted to every session per round
)

// fleetRig is one set-up of fleet_durable: a durable in-process manager
// and its sessions, driven by one goroutine.
type fleetRig struct {
	mgr    *fleet.Manager
	reg    *telemetry.Registry
	ftr    *telemetry.Tracer // the fleet's own frame tracer; nil unless traced
	dir    string
	ids    []string
	gens   []*frameGen
	checks []sessionCheck
}

func fleetConfig(dir string, reg *telemetry.Registry, ftr *telemetry.Tracer) fleet.Config {
	return fleet.Config{
		Build:      fleet.DefaultBuilder(),
		Metrics:    reg,
		Trace:      ftr,
		Durability: fleet.Durability{Dir: dir, CommitWindow: commitWindow},
	}
}

// newFleetRig opens a manager on a fresh state directory and creates the
// sessions. traced hands the manager the exported frame tracer.
func newFleetRig(e *env, traced bool) (*fleetRig, error) {
	dir, err := os.MkdirTemp(e.out, "state-")
	if err != nil {
		return nil, err
	}
	rig := &fleetRig{dir: dir, reg: telemetry.NewRegistry()}
	if traced {
		rig.ftr = telemetry.NewTracer(rig.reg)
	}
	if rig.mgr, err = fleet.NewManager(fleetConfig(dir, rig.reg, rig.ftr)); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	rig.checks = make([]sessionCheck, fleetSessions)
	for i := 0; i < fleetSessions; i++ {
		gen, err := newFrameGen(e.seed*1000 + int64(i))
		if err != nil {
			rig.tearDown()
			return nil, err
		}
		info, err := rig.mgr.Create(fleet.Spec{Robot: "khepera"})
		if err != nil {
			rig.tearDown()
			return nil, err
		}
		rig.ids = append(rig.ids, info.ID)
		rig.gens = append(rig.gens, gen)
	}
	return rig, nil
}

func (rig *fleetRig) tearDown() {
	rig.mgr.Shutdown(context.Background())
	os.RemoveAll(rig.dir)
}

// round is one op: SubmitBatch n frames to every session, then Wait on
// all of them. It returns the time before the first submit and after the
// last wait. rec, when not nil, is credited each session's frames as its
// Wait returns.
func (rig *fleetRig) round(n int, tr *tracer, rec *recorder) (t0, t1 time.Time, err error) {
	batches := make([][]fleet.BatchFrame, len(rig.ids))
	for i, gen := range rig.gens {
		batches[i] = make([]fleet.BatchFrame, n)
		for j := range batches[i] {
			f := gen.next()
			rig.checks[i].sentFrame(f)
			batches[i][j].U, batches[i][j].Readings = frameInputs(f)
		}
	}
	ot := tr.begin()
	var spans []*telemetry.Span
	t0 = time.Now()
	root := ot.add("fleet.round", -1, t0, t0) // end is set below
	pending := make([]*fleet.PendingBatch, len(rig.ids))
	for i, id := range rig.ids {
		if ot != nil {
			// The submitter owns a frame's span: begin it here, finish it
			// after the wait, and the fleet laps its stages in between.
			for j := range batches[i] {
				sp := rig.ftr.Begin(id, time.Now())
				batches[i][j].Span = sp
				spans = append(spans, sp)
			}
		}
		s0 := time.Now()
		pending[i], err = rig.mgr.SubmitBatch(id, batches[i])
		ot.add("fleet.Manager.SubmitBatch", root, s0, time.Now())
		if err != nil {
			return t0, t0, fmt.Errorf("session %s: submit: %w", id, err)
		}
	}
	for i, p := range pending {
		w0 := time.Now()
		results, err := p.Wait(context.Background())
		acked := time.Now()
		ot.add("fleet.PendingBatch.Wait", root, w0, acked)
		if err != nil {
			return t0, t0, fmt.Errorf("session %s: wait: %w", rig.ids[i], err)
		}
		if rec != nil {
			// Frames count where their ack is seen, not at the round's end:
			// a segment holds some 35 rounds, and whole rounds would
			// quantize its rate in steps of 3%.
			rec.credit(acked, len(results))
		}
		for _, res := range results {
			if res.Err != nil {
				rig.checks[i].ack(-1, nil, res.Err.Error())
				continue
			}
			w := fleet.NewWireReport(res.Report)
			rig.checks[i].ack(w.K, &w, "")
		}
	}
	t1 = time.Now()
	for _, sp := range spans {
		sp.Finish()
	}
	if ot != nil {
		ot.spans[root].End = int64(t1.Sub(ot.t.t0))
		ot.end()
	}
	return t0, t1, nil
}

// rounds drives n frames per session through the rig in lockstep rounds.
func (rig *fleetRig) rounds(frames int) error {
	for left := frames; left > 0; left -= roundBatch {
		if _, _, err := rig.round(min(left, roundBatch), nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// copyDir copies a state directory: one level of session directories
// holding regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// fleetRecovery is the recovery phase: a fresh manager takes every session
// exactly sizes.tail frames and is abandoned without Shutdown, like a killed
// process; its directory is copied once per recovery and each copy is
// recovered by fleet.NewManager, which is what is timed. Every recovery
// must hold the durability contract and continue the uninterrupted
// reference.
func fleetRecovery(e *env, m *measurement) error {
	crashed, err := newFleetRig(e, false)
	if err != nil {
		return err
	}
	defer os.RemoveAll(crashed.dir)
	if err := crashed.rounds(e.sizes.tail); err != nil {
		return err
	}
	// The uninterrupted answer for the frames after the crash.
	next := make([][]*trace.Frame, fleetSessions)
	want := make([][]uint64, fleetSessions)
	for i, c := range crashed.checks {
		ref, err := c.verify()
		if err != nil {
			return fmt.Errorf("session %s before the crash: %w", crashed.ids[i], err)
		}
		for j := 0; j < resumeFrames; j++ {
			f := crashed.gens[i].next()
			if err := ref.step(f); err != nil {
				return err
			}
			next[i] = append(next[i], f)
		}
		want[i] = ref.digests[e.sizes.tail:]
	}

	var replayed float64
	var recoverMs []float64
	for n := 0; n < e.sizes.recoveries; n++ {
		dir := filepath.Join(e.out, fmt.Sprintf("recover-%d", n))
		if err := copyDir(crashed.dir, dir); err != nil {
			return err
		}
		reg := telemetry.NewRegistry()
		t0 := time.Now()
		mgr, err := fleet.NewManager(fleetConfig(dir, reg, nil))
		if err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("recovery %d: %w", n, err)
		}
		recoverMs = append(recoverMs, float64(time.Since(t0))/float64(time.Millisecond))
		replayed = float64(reg.CounterValue(store.MetricRecoveredFrames))
		m.check(checkRecovered(mgr, crashed, next, want))
		mgr.Shutdown(context.Background())
		os.RemoveAll(dir)
	}
	if len(recoverMs) > 0 {
		m.layer["store.recover_ms"] = median(recoverMs)
		if e.tr != nil {
			m.layer["store.recover_frames_per_s"] = replayed / (median(recoverMs) / 1e3)
		}
	}
	return nil
}

// checkRecovered holds one recovered manager to the contract: per session
// acked ≤ recovered ≤ sent, and the next frames' reports match the
// uninterrupted reference.
func checkRecovered(mgr *fleet.Manager, crashed *fleetRig, next [][]*trace.Frame, want [][]uint64) error {
	for i, id := range crashed.ids {
		st, err := mgr.Status(id)
		if err != nil {
			return fmt.Errorf("session %s after recovery: %w", id, err)
		}
		c := crashed.checks[i]
		if st.FramesApplied < c.acked || st.FramesApplied > c.sent {
			return fmt.Errorf("session %s: recovered %d frames with %d acked, %d sent (want acked <= recovered <= sent)",
				id, st.FramesApplied, c.acked, c.sent)
		}
		batch := make([]fleet.BatchFrame, len(next[i]))
		for j, f := range next[i] {
			batch[j].U, batch[j].Readings = frameInputs(f)
		}
		p, err := mgr.SubmitBatch(id, batch)
		if err != nil {
			return fmt.Errorf("session %s after recovery: %w", id, err)
		}
		results, err := p.Wait(context.Background())
		if err != nil {
			return err
		}
		for j, res := range results {
			if res.Err != nil {
				return fmt.Errorf("session %s frame %d after recovery: %w", id, c.sent+j, res.Err)
			}
			w := fleet.NewWireReport(res.Report)
			if reportDigest(&w) != want[i][j] {
				return fmt.Errorf("session %s: report %d after recovery differs from the uninterrupted reference", id, c.sent+j)
			}
		}
	}
	return nil
}

func runFleetDurable(e *env) (*measurement, error) {
	m := &measurement{clients: 1, layer: map[string]float64{}}

	// Set up several times and keep the last, as the serve_* workloads do;
	// setup_s is their median.
	var rig *fleetRig
	var err error
	for i := 0; i < e.sizes.setups; i++ {
		if rig != nil {
			rig.tearDown()
		}
		t0 := time.Now()
		if rig, err = newFleetRig(e, e.tr != nil); err != nil {
			return nil, err
		}
		if err := rig.rounds(e.sizes.warmRounds * roundBatch); err != nil {
			rig.tearDown()
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}
	defer func() { rig.tearDown() }()

	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	cpu0 := selfCPU()
	fsyncs0 := rig.reg.CounterValue(store.MetricWALFsyncs)
	debug.FreeOSMemory() // the set-ups' garbage is not the timed phase's memory
	start := time.Now()
	rec := newRecorder(start, 100*e.segments())
	rss := sampleRSS(os.Getpid())
	stop := toggleTracing(e.tr, start, e.phase)
	for {
		t0, t1, err := rig.round(roundBatch, e.tr, rec)
		if err != nil {
			m.check(err)
			break
		}
		if rec.add(t0, t1, 0) >= e.phase {
			break
		}
	}
	stop()
	cpu := selfCPU() - cpu0
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	if m.peakRSSMB, err = rss.finish(); err != nil {
		return nil, err
	}
	// A round waits on the commit window and the disk: as measured.
	m.wall = reduce(e.segments(), false, rec)
	m.stats = m.wall

	if e.tr != nil {
		frames := float64(len(rec.lat) * fleetSessions * roundBatch)
		snap := rig.ftr.Snapshot()
		workers := runtime.GOMAXPROCS(0) // fleet.Config.Workers is left at its default
		m.layer["fleet.queue_wait_ms"] = stageMs(snap, telemetry.StageQueueWait)
		m.layer["fleet.step_ms"] = stageMs(snap, telemetry.StageStep)
		m.layer["fleet.rejects"] = float64(rig.reg.CounterValue(fleet.MetricRejectedFrames))
		m.layer["fleet.workers"] = float64(workers)
		m.layer["store.fsyncs_per_kframe"] = float64(rig.reg.CounterValue(store.MetricWALFsyncs)-fsyncs0) / (frames / 1e3)
		if n, err := dirBytes(rig.dir); err == nil {
			m.layer["store.bytes_per_frame"] = float64(n) / float64(fleetSessions*rig.checks[0].acked)
		}
		m.layer["proc.cpu_ms_per_kframe"] = 1e3 * cpu.Seconds() / (frames / 1e3)
		m.layer["proc.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
		m.layer["proc.heap_mb"] = float64(gc1.HeapAlloc) / (1 << 20)
		// The op is one round. A worker serves its share of the sessions one
		// quantum after another, and a quantum is a batch's coalesce, step,
		// WAL append and commit-barrier stages; queue wait is not a term of
		// its own, it is the quanta of the sessions ahead.
		quantum := stageMs(snap, telemetry.StageCoalesce) + stageMs(snap, telemetry.StageStep) +
			stageMs(snap, telemetry.StageWALAppend) + stageMs(snap, telemetry.StageFsync)
		path := float64((fleetSessions+workers-1)/workers)*quantum + fleetSessions*e.tr.p50("fleet.Manager.SubmitBatch")/1e3
		if p50 := m.wall.p50Ms; p50 > 0 {
			m.layer["bench.unattributed_pct"] = 100 * (p50 - path) / p50
		}
	}

	if err := fleetRecovery(e, m); err != nil {
		return nil, err
	}
	for i := range rig.checks {
		c := &rig.checks[i]
		m.attempted += c.sent
		m.failed += c.sent - c.acked + c.failed
		_, err := c.verify()
		m.check(err)
	}
	return m, nil
}
