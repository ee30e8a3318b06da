package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/fleet"
	"roboads/internal/mat"
	"roboads/internal/robot"
	"roboads/internal/sensors"
	"roboads/internal/store"
	"roboads/internal/trace"
)

// timeEach returns the median wall time in nanoseconds of n calls of f,
// each timed on its own. For calls of a microsecond and up.
func timeEach(n int, f func(i int) error) (float64, error) {
	ns := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns), nil
}

// timeKernel returns the median per-call nanoseconds of f over samples of
// a thousand back-to-back calls: a kernel of tens of nanoseconds is below
// what one clock read resolves.
func timeKernel(samples int, f func()) float64 {
	const calls = 1000
	ns := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		ns = append(ns, float64(time.Since(t0))/calls)
	}
	return median(ns)
}

// probeLayers measures what one call into each layer's exported functions
// costs, the same way in every workload's traced run: the Khepera shapes,
// nominal frames from the run's seed, sequential mode bank. It fills the
// direct-call half of the per-layer ledger.
func probeLayers(e *env, values map[string]float64) error {
	n := e.sizes.probeIters
	gen, err := newFrameGen(e.seed * 1000)
	if err != nil {
		return err
	}
	frames := make([]*trace.Frame, n)
	for i := range frames {
		frames[i] = gen.next()
	}
	probeMat(values)
	if err := probeCore(n, frames, values); err != nil {
		return err
	}
	if err := probeTrace(frames, values); err != nil {
		return err
	}
	if err := probeStore(e, frames, values); err != nil {
		return err
	}
	return probeFleet(frames, values)
}

// spd returns a well-conditioned n×n symmetric positive definite matrix.
func spd(n int) *mat.Mat {
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, 1/float64(1+i+j))
		}
		m.Set(i, i, m.At(i, i)+float64(n))
	}
	return m
}

// probeMat calls the kernels at the Khepera NUISE shapes: three states,
// and seven testing rows (encoder 3 + LiDAR 4) against the IPS reference.
func probeMat(values map[string]float64) {
	const states, rows = 3, 7
	r2 := spd(rows)
	l := mat.New(rows, rows)
	b := make(mat.Vec, rows)
	for i := range b {
		b[i] = float64(i + 1)
	}
	x := make(mat.Vec, rows)
	values["mat.chol_solve_ns"] = timeKernel(200, func() {
		mat.CholFactorInto(l, r2)
		mat.CholSolveVecInto(x, l, b)
	})
	c := mat.New(rows, states)
	for i := 0; i < rows; i++ {
		for j := 0; j < states; j++ {
			c.Set(i, j, float64(i-j)/7)
		}
	}
	p := spd(states)
	dst := mat.New(rows, states)
	values["mat.mul_ns"] = timeKernel(200, func() { mat.MulInto(dst, c, p) })
}

// probeCore times one NUISE step at the Khepera shape (IPS reference,
// encoder + LiDAR testing), then steps a bare three-mode engine and a
// detector built the way a fleet session's is through the same frames,
// turn by turn, so that drift in the machine's speed cancels out of their
// difference: the decision maker's own time. The engine's allocations are
// counted on a second engine; they repeat exactly.
func probeCore(n int, frames []*trace.Frame, values map[string]float64) error {
	p, err := robot.Named("khepera")
	if err != nil {
		return err
	}
	q := make([]float64, len(p.ProcessStd))
	for i, s := range p.ProcessStd {
		q[i] = s * s
	}
	plant := core.Plant{Model: p.Model, Q: mat.Diag(q...), AngleStates: p.AngleStates, UMax: p.UMax}
	p0 := mat.Diag(1e-6, 1e-6, 1e-6)

	testing, err := sensors.NewStacked(p.Suite[1], p.Suite[2])
	if err != nil {
		return err
	}
	u, _ := frameInputs(frames[0])
	xNext := p.Model.F(p.X0, u)
	z2, z1 := p.Suite[0].H(xNext), testing.H(xNext)
	sc := mat.NewScratch()
	ns, err := timeEach(4*n, func(int) error {
		_, err := core.NUISEScratch(plant, p.Suite[0], testing, u, p.X0, p0, z1, z2, sc)
		return err
	})
	if err != nil {
		return fmt.Errorf("NUISE probe: %w", err)
	}
	values["core.nuise_step_us"] = ns / 1e3

	modes, err := core.SingleReferenceModes(p.Model, p.Suite, p.ObsX0, p.ObsU0, false)
	if err != nil {
		return err
	}
	ecfg := core.DefaultEngineConfig()
	ecfg.Workers = -1
	newEngine := func() (*core.Engine, error) { return core.NewEngine(plant, modes, p.X0, p0, ecfg) }
	inputs := make([]map[string]mat.Vec, len(frames))
	for i, f := range frames {
		_, inputs[i] = frameInputs(f)
	}

	counted, err := newEngine()
	if err != nil {
		return err
	}
	defer counted.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, f := range frames {
		if _, err := counted.Step(mat.Vec(f.U), inputs[i]); err != nil {
			return fmt.Errorf("engine probe: %w", err)
		}
	}
	runtime.ReadMemStats(&after)
	values["core.engine_allocs_per_step"] = float64(after.Mallocs-before.Mallocs) / float64(len(frames))
	values["core.engine_bytes_per_step"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(frames))

	eng, err := newEngine()
	if err != nil {
		return err
	}
	defer eng.Close()
	det, _, err := fleet.DefaultBuilder()(fleet.Spec{Robot: "khepera"})
	if err != nil {
		return err
	}
	defer det.Close()
	var engNs, detNs, decideNs []float64
	for i, f := range frames {
		t0 := time.Now()
		_, err := eng.Step(mat.Vec(f.U), inputs[i])
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("engine probe: %w", err)
		}
		if _, err := det.StepContext(context.Background(), mat.Vec(f.U), inputs[i]); err != nil {
			return fmt.Errorf("detector probe: %w", err)
		}
		t2 := time.Now()
		engNs = append(engNs, float64(t1.Sub(t0)))
		detNs = append(detNs, float64(t2.Sub(t1)))
		decideNs = append(decideNs, float64(t2.Sub(t1)-t1.Sub(t0)))
	}
	values["core.engine_step_us"] = median(engNs) / 1e3
	values["detect.step_us"] = median(detNs) / 1e3
	values["detect.decide_us"] = median(decideNs) / 1e3
	return nil
}

// probeTrace times the binary frame codec both ways.
func probeTrace(frames []*trace.Frame, values map[string]float64) error {
	var buf []byte
	ns, _ := timeEach(len(frames), func(i int) error {
		buf = trace.AppendFrameRecord(buf[:0], frames[i])
		return nil
	})
	values["trace.encode_ns_per_frame"] = ns
	values["trace.bytes_per_frame"] = float64(len(buf))

	var wire []byte
	for _, f := range frames {
		wire = trace.AppendFrameRecord(wire, f)
	}
	br := bufio.NewReader(bytes.NewReader(wire))
	ns, err := timeEach(len(frames), func(int) error {
		_, err := trace.ReadFrameRecord(br)
		return err
	})
	if err != nil {
		return fmt.Errorf("trace decode probe: %w", err)
	}
	values["trace.decode_ns_per_frame"] = ns
	return nil
}

// probeStore times the store's calls on the benchmark's own directory:
// an append that does not sync, the device sync itself, one caller's
// Commit under the 2 ms window, and a snapshot.
func probeStore(e *env, frames []*trace.Frame, values map[string]float64) error {
	dir, err := os.MkdirTemp(e.out, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	det, _, err := fleet.DefaultBuilder()(fleet.Spec{Robot: "khepera"})
	if err != nil {
		return err
	}
	defer det.Close()
	for _, f := range frames[:min(len(frames), 64)] {
		u, readings := frameInputs(f)
		if _, err := det.StepContext(context.Background(), u, readings); err != nil {
			return err
		}
	}
	snapshot := func() *store.Snapshot {
		return &store.Snapshot{
			Robot: "khepera", Sensors: []string{"ips", "encoder", "lidar"}, Dt: 0.1,
			State: det.(*detect.Detector).ExportState(),
		}
	}

	st, err := store.Open(filepath.Join(dir, "commit"), store.Options{CommitWindow: commitWindow})
	if err != nil {
		return err
	}
	ss, err := st.Create("probe")
	if err != nil {
		return err
	}
	defer ss.Close()
	var snapBytes int
	ns, err := timeEach(min(len(frames), 32), func(int) error {
		n, err := ss.WriteSnapshot(snapshot())
		snapBytes = n
		return err
	})
	if err != nil {
		return fmt.Errorf("snapshot probe: %w", err)
	}
	values["store.snapshot_us"] = ns / 1e3
	values["store.snapshot_bytes"] = float64(snapBytes)

	if ns, err = timeEach(len(frames), func(i int) error { return ss.Append(frames[i]) }); err != nil {
		return fmt.Errorf("WAL append probe: %w", err)
	}
	values["store.wal_append_us"] = ns / 1e3

	ns, err = timeEach(min(len(frames), 64), func(i int) error {
		if err := ss.Append(frames[i]); err != nil {
			return err
		}
		return ss.Commit(1)
	})
	if err != nil {
		return fmt.Errorf("commit probe: %w", err)
	}
	values["store.commit_wait_ms"] = ns / 1e6

	f, err := os.Create(filepath.Join(dir, "fsync"))
	if err != nil {
		return err
	}
	defer f.Close()
	record := trace.AppendFrameRecord(nil, frames[0])
	ns, err = timeEach(min(len(frames), 64), func(int) error {
		if _, err := f.Write(record); err != nil {
			return err
		}
		return f.Sync()
	})
	if err != nil {
		return fmt.Errorf("fsync probe: %w", err)
	}
	values["store.fsync_us"] = ns / 1e3
	return nil
}

// probeFleet times the service around a step with durability off and one
// session: SubmitBatch alone, and a whole Manager.Step whose excess over
// Detector.Step is the scheduling quantum's overhead.
func probeFleet(frames []*trace.Frame, values map[string]float64) error {
	mgr, err := fleet.NewManager(fleet.Config{Build: fleet.DefaultBuilder()})
	if err != nil {
		return err
	}
	defer mgr.Shutdown(context.Background())
	info, err := mgr.Create(fleet.Spec{Robot: "khepera"})
	if err != nil {
		return err
	}
	var submit []float64
	ns, err := timeEach(len(frames), func(i int) error {
		u, readings := frameInputs(frames[i])
		t0 := time.Now()
		p, err := mgr.Submit(info.ID, u, readings)
		submit = append(submit, float64(time.Since(t0)))
		if err != nil {
			return err
		}
		_, err = p.Wait(context.Background())
		return err
	})
	if err != nil {
		return fmt.Errorf("fleet probe: %w", err)
	}
	values["fleet.submit_us"] = median(submit) / 1e3
	values["fleet.quantum_us"] = ns/1e3 - values["detect.step_us"]
	return nil
}
