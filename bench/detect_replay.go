package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"roboads/internal/attack"
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/fleet"
	"roboads/internal/metrics"
	"roboads/internal/robot"
	"roboads/internal/scenario"
	"roboads/internal/sim"
	"roboads/internal/world"
)

// mission is one (scenario, trial) of the suite, generated once by
// stepping its simulator alone and then replayed through fresh detectors
// for the rest of the run.
type mission struct {
	name     string
	compiled attack.Scenario
	prof     robot.Profile
	dt       float64
	recs     []*sim.StepRecord
	first    int           // index of recs[0] among all the run's frames
	build    time.Duration // fastest untraced NewDetector + Close of any replay (0: none yet)
	digest   uint64        // of the first replay's reports
	iters    []iterOutcome // the first replay's evidence for the quality accounting
}

// iterOutcome is what the quality accounting needs of one report.
type iterOutcome struct {
	condSensors   []string
	sensorAlarm   bool
	actuatorAlarm bool
	daValid       bool
}

// missionFor maps a suite world name to its mission, as the scenario
// runner does.
func missionFor(w string) sim.Mission {
	if w == "warehouse" {
		return sim.Mission{
			Map:          world.WarehouseArena(),
			Start:        world.Point{X: 0.6, Y: 0.6},
			StartHeading: 0.4,
			Goal:         world.Point{X: 7.2, Y: 5.4},
		}
	}
	return sim.LabMission()
}

// generate builds one mission the way scenario.RunSuite does (the same
// compile, mission, seed and iteration cap) and steps its simulator to
// completion with no detector attached.
func generate(sc *scenario.Scenario, seed int64, tr *tracer) (*mission, error) {
	compiled, err := sc.Compile(1000)
	if err != nil {
		return nil, err
	}
	m := &mission{name: sc.Name, compiled: compiled}
	limit := sc.Iterations
	if limit <= 0 {
		limit = scenario.MaxIterations
	}
	var step func() (*sim.StepRecord, error)
	switch sc.Robot {
	case "khepera":
		setup, err := sim.NewKhepera(missionFor(sc.World), &m.compiled, seed)
		if err != nil {
			return nil, fmt.Errorf("scenario %q seed %d: %w", sc.Name, seed, err)
		}
		m.prof, m.dt, step = robot.Khepera(setup), sim.KheperaDt, setup.Sim.Step
	case "tamiya":
		setup, err := sim.NewTamiya(missionFor(sc.World), &m.compiled, seed)
		if err != nil {
			return nil, fmt.Errorf("scenario %q seed %d: %w", sc.Name, seed, err)
		}
		m.prof, m.dt, step = robot.Tamiya(setup), sim.TamiyaDt, setup.Sim.Step
	default:
		return nil, fmt.Errorf("scenario %q: unknown robot %q", sc.Name, sc.Robot)
	}
	for len(m.recs) < limit {
		ot := tr.begin()
		t0 := time.Now()
		rec, err := step()
		ot.add("sim.Simulator.Step", -1, t0, time.Now())
		ot.end()
		if err != nil {
			break // mission over
		}
		m.recs = append(m.recs, rec)
		if rec.Done {
			break
		}
	}
	if len(m.recs) == 0 {
		return nil, fmt.Errorf("scenario %q seed %d: empty mission", sc.Name, seed)
	}
	return m, nil
}

// engineObserver turns the engine's exported Observer hooks into child
// spans of the Detector.Step the harness is timing. The mode bank may call
// ModeStep from its pool goroutines.
type engineObserver struct {
	mu     sync.Mutex
	engine [2]time.Time
	modes  [][2]time.Time
}

func (o *engineObserver) EngineStep(st *core.StepStats) {
	now := time.Now()
	o.mu.Lock()
	o.engine = [2]time.Time{now.Add(-time.Duration(st.WallNanos)), now}
	o.mu.Unlock()
}

func (o *engineObserver) ModeStep(_ int, _ string, nanos int64, _ bool) {
	now := time.Now()
	o.mu.Lock()
	o.modes = append(o.modes, [2]time.Time{now.Add(-time.Duration(nanos)), now})
	o.mu.Unlock()
}

func (o *engineObserver) PoolWait(int64)        {}
func (o *engineObserver) DroppedReading(string) {}

// file records the spans of one Detector.Step and resets for the next.
func (o *engineObserver) file(tr *tracer, t0, t1 time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if ot := tr.begin(); ot != nil {
		root := ot.add("detect.Detector.Step", -1, t0, t1)
		eng := ot.add("core.Engine.Step", root, o.engine[0], o.engine[1])
		for _, m := range o.modes {
			ot.add("core.NUISE", eng, m[0], m[1])
		}
		ot.end()
	}
	o.modes = o.modes[:0]
}

// foldDigest chains one report into a mission's running digest.
func foldDigest(h uint64, rep *detect.Report) uint64 {
	w := fleet.NewWireReport(rep)
	return h*1099511628211 ^ reportDigest(&w)
}

// replayer drives the timed phase of detect_replay.
type replayer struct {
	e          *env
	suite      *scenario.Suite
	missions   []*mission
	genSeconds []float64 // one per trial
	obs        *engineObserver
	m          *measurement
	ops        *recorder
	// floor is, per frame of the frame set, the fastest untraced
	// Detector.Step any replay of it took, in ns (0: not replayed yet).
	// A replay repeats a frame's work exactly and a neighbour can only
	// add to it, so the fastest replay is what the frame costs on a quiet
	// machine (speed.go).
	floor []uint32
}

// newDetector builds the mission's detector the way the scenario runner
// does, except that the mode bank steps on the calling goroutine, as every
// fleet session's does: fanned out over the pool, two runs of the same code
// disagreed by 15% here, stepping in line they agree within 2%, and reports
// are bit for bit the same either way. A traced segment adds the engine
// observer.
func (r *replayer) newDetector(m *mission, traced bool) (*detect.Detector, error) {
	ecfg := core.DefaultEngineConfig()
	ecfg.Workers = -1
	if traced {
		ecfg.Observer = r.obs
	}
	return m.prof.NewDetector(ecfg, detect.DefaultConfig())
}

// firstReplay is the warm-up pass: every mission once, recording the
// reference digest and the evidence the quality accounting reduces.
func (r *replayer) firstReplay() error {
	for _, m := range r.missions {
		det, err := r.newDetector(m, false)
		if err != nil {
			return err
		}
		m.iters = make([]iterOutcome, 0, len(m.recs))
		for _, rec := range m.recs {
			rep, err := det.Step(rec.UPlanned, rec.Readings)
			if err != nil {
				det.Close()
				return fmt.Errorf("scenario %q k=%d: %w", m.name, rec.K, err)
			}
			m.digest = foldDigest(m.digest, rep)
			m.iters = append(m.iters, iterOutcome{
				condSensors:   rep.Decision.Condition.Sensors,
				sensorAlarm:   rep.Decision.SensorAlarm,
				actuatorAlarm: rep.Decision.ActuatorAlarm,
				daValid:       rep.Engine.Result.DaValid,
			})
		}
		det.Close()
	}
	return nil
}

// timed replays the frame set over and over for the phase, one
// Detector.Step per op, and checks every completed mission's digest
// against its first replay.
func (r *replayer) timed() error {
	start := time.Now()
	r.ops = newRecorder(start, 60_000*r.e.segments())
	stop := toggleTracing(r.e.tr, start, r.e.phase)
	defer stop()
	for {
		for _, m := range r.missions {
			traced := r.e.tr.enabled()
			b0 := time.Now()
			det, err := r.newDetector(m, traced)
			if err != nil {
				return err
			}
			build := time.Since(b0)
			var h uint64
			complete := true
			for i, rec := range m.recs {
				t0 := time.Now()
				rep, err := det.Step(rec.UPlanned, rec.Readings)
				t1 := time.Now()
				r.m.attempted++
				if err != nil {
					r.m.failed++
					r.m.check(fmt.Errorf("scenario %q k=%d: %w", m.name, rec.K, err))
					complete = false
					break
				}
				at := r.ops.add(t0, t1, 1)
				if traced {
					r.obs.file(r.e.tr, t0, t1)
				} else if ns := uint32(min(t1.Sub(t0), math.MaxUint32)); r.floor[m.first+i] == 0 || ns < r.floor[m.first+i] {
					r.floor[m.first+i] = ns
				}
				h = foldDigest(h, rep)
				if at >= r.e.phase {
					det.Close()
					return nil
				}
			}
			b0 = time.Now()
			det.Close()
			if build += time.Since(b0); !traced && (m.build == 0 || build < m.build) {
				m.build = build
			}
			if complete && h != m.digest {
				r.m.check(fmt.Errorf("scenario %q: replay digest %x differs from its first replay's %x", m.name, h, m.digest))
			}
		}
	}
}

// quality is the suite-level detection accounting, defined as
// scenario.RunSuite defines it.
type quality struct {
	sensor, actuator metrics.Confusion
	delaySum         float64 // seconds, over detected (target, trial) pairs
	detected, missed int
}

func truthEqual(truth attack.Truth, detected []string) bool {
	if len(truth.CorruptedSensors) != len(detected) {
		return false
	}
	for _, s := range detected {
		if !truth.CorruptedSensors[s] {
			return false
		}
	}
	return true
}

// onset returns the first iteration of the mission at which any of the
// given activity tests holds, or -1.
func (m *mission) onset(active func(k int) bool) int {
	for k := range m.iters {
		if active(k) {
			return k
		}
	}
	return -1
}

// account folds one mission's first replay into q: the identification-
// aware confusions, and per attacked target (the first window of each
// sensor, and the actuator) the delay from onset to first confirmation.
func (m *mission) account(q *quality) {
	for i, it := range m.iters {
		truth := m.recs[i].Truth
		detPos := it.sensorAlarm
		correct := detPos && truthEqual(truth, it.condSensors)
		if detPos && len(it.condSensors) == 0 {
			detPos = false
		}
		q.sensor.Add(len(truth.CorruptedSensors) > 0, detPos, correct)
		if it.daValid {
			q.actuator.Add(truth.ActuatorCorrupted, it.actuatorAlarm, true)
		}
	}
	onsets := make(map[string]int)
	for _, a := range m.compiled.SensorAttacks {
		if _, seen := onsets[a.Target()]; !seen {
			onsets[a.Target()] = m.onset(a.Active)
		}
	}
	if len(m.compiled.ActuatorAttacks) > 0 {
		onsets["actuator"] = m.onset(func(k int) bool {
			for _, a := range m.compiled.ActuatorAttacks {
				if a.Active(k) {
					return true
				}
			}
			return false
		})
	}
	for target, onset := range onsets {
		if onset < 0 {
			q.missed++
			continue
		}
		flags := make([]bool, len(m.iters))
		for i, it := range m.iters {
			if target == "actuator" {
				flags[i] = it.actuatorAlarm
				continue
			}
			for _, s := range it.condSensors {
				flags[i] = flags[i] || s == target
			}
		}
		if d := metrics.FirstDetection(onset, flags); d.Detected >= 0 {
			q.delaySum += d.Seconds(m.dt)
			q.detected++
		} else {
			q.missed++
		}
	}
}

func (q *quality) delaySec() float64 {
	if q.detected == 0 {
		return -1
	}
	return q.delaySum / float64(q.detected)
}

// falseAlarmPct pools sensor and actuator false-alarm iterations over
// attack-free iterations.
func (q *quality) falseAlarmPct() float64 {
	free := q.sensor.FP + q.sensor.TN + q.actuator.FP + q.actuator.TN
	if free == 0 {
		return 0
	}
	return 100 * float64(q.sensor.FP+q.actuator.FP) / float64(free)
}

// crossCheck holds the harness's accounting equal to scenario.RunSuite's
// on the same suite, seed and trials. RunSuite's results do not depend on
// its worker count, so it may use every core.
func (q *quality) crossCheck(suite *scenario.Suite, trials int) error {
	res, err := scenario.RunSuite(suite, scenario.RunConfig{Trials: trials, Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	if q.sensor != res.SensorConfusion || q.actuator != res.ActuatorConfusion || q.missed != res.Missed {
		return fmt.Errorf("harness accounting sensor %v actuator %v missed %d, RunSuite sensor %v actuator %v missed %d",
			q.sensor, q.actuator, q.missed, res.SensorConfusion, res.ActuatorConfusion, res.Missed)
	}
	if math.Abs(q.delaySec()-res.AvgDelaySec) > 1e-9 {
		return fmt.Errorf("harness mean delay %.9f s, RunSuite %.9f s", q.delaySec(), res.AvgDelaySec)
	}
	return nil
}

// setUp pre-generates the trials, then replays all of them once as
// warm-up. Mission generation costs several times what detection does, so
// it cannot be interleaved with the timed phase. At three to four seconds
// of deterministic work it repeats well enough done once.
func (r *replayer) setUp() error {
	suite, err := scenario.Default(r.e.seed)
	if err != nil {
		return err
	}
	if r.e.sizes.scenarios > 0 {
		suite.Scenarios = suite.Scenarios[:r.e.sizes.scenarios]
	}
	r.suite = suite
	r.e.tr.set(true)
	defer r.e.tr.set(false)
	for trial := 0; trial < r.e.sizes.trials; trial++ {
		t0 := time.Now()
		for i := range suite.Scenarios {
			ms, err := generate(&suite.Scenarios[i], suite.Seed+int64(trial), r.e.tr)
			if err != nil {
				return err
			}
			ms.first = len(r.floor)
			r.floor = append(r.floor, make([]uint32, len(ms.recs))...)
			r.missions = append(r.missions, ms)
		}
		r.genSeconds = append(r.genSeconds, time.Since(t0).Seconds())
	}
	r.e.tr.set(false)
	return r.firstReplay()
}

// floorStats reports the timed phase by the floors: the rate is the frames
// replayed over the sum of their floors and their missions' detector
// build floors — how fast the frame set replays on a quiet machine — and
// the latency percentiles run across the frames, whose costs differ by
// robot, mode bank and attack, not across replays. What lands on a step at
// random — a garbage-collection assist, the neighbour — is in no floor;
// the wall-clock numbers of the same phase are the bench.wall_* rows.
func (r *replayer) floorStats(wall phaseStats) phaseStats {
	var ms []float64
	var sum float64
	for _, ns := range r.floor {
		if ns > 0 {
			ms = append(ms, float64(ns)/1e6)
			sum += float64(ns) / 1e9
		}
	}
	for _, m := range r.missions {
		sum += m.build.Seconds()
	}
	st := wall
	if sum > 0 {
		sort.Float64s(ms)
		st.framesPerS = float64(len(ms)) / sum
		st.p50Ms = percentile(ms, 0.5)
		st.p95Ms = percentile(ms, 0.95)
	}
	return st
}

func runDetectReplay(e *env) (*measurement, error) {
	m := &measurement{clients: 1, layer: map[string]float64{}}
	r := &replayer{e: e, obs: &engineObserver{}, m: m}
	setupStart := time.Now()
	if err := r.setUp(); err != nil {
		return nil, err
	}
	m.setups = []float64{time.Since(setupStart).Seconds()}
	frames := 0
	for _, ms := range r.missions {
		frames += len(ms.recs)
	}
	fmt.Printf("detect_replay: %d missions, %d frames pre-generated in %.2f s per trial\n",
		len(r.missions), frames, median(r.genSeconds))

	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	cpu0 := selfCPU()
	debug.FreeOSMemory() // the set-up's garbage is not the timed phase's memory
	rss := sampleRSS(os.Getpid())
	if err := r.timed(); err != nil {
		return nil, err
	}
	var err error
	if m.peakRSSMB, err = rss.finish(); err != nil {
		return nil, err
	}
	m.wall = reduce(e.segments(), false, r.ops)
	m.stats = r.floorStats(m.wall)
	cpu := selfCPU() - cpu0
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)

	var q quality
	for _, ms := range r.missions {
		ms.account(&q)
	}
	m.check(q.crossCheck(r.suite, e.sizes.trials))

	m.layer["detect.delay_ms"] = 1e3 * q.delaySec()
	m.layer["detect.false_alarm_pct"] = q.falseAlarmPct()
	m.layer["detect.missed"] = float64(q.missed)
	if e.tr != nil {
		m.layer["sim.gen_s_per_trial"] = median(r.genSeconds)
		m.layer["detect.sensor_fpr_pct"] = 100 * q.sensor.FPR()
		m.layer["detect.actuator_fpr_pct"] = 100 * q.actuator.FPR()
		m.layer["proc.cpu_ms_per_kframe"] = 1e3 * cpu.Seconds() / (float64(m.attempted) / 1e3)
		m.layer["proc.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
		m.layer["proc.heap_mb"] = float64(gc1.HeapAlloc) / (1 << 20)
		// The op is one Detector.Step: its blocking path is the decision
		// maker's own time plus the engine step it calls.
		path := e.tr.selfP50("detect.Detector.Step") + e.tr.p50("core.Engine.Step")
		if p50 := 1e3 * m.wall.p50Ms; p50 > 0 {
			m.layer["bench.unattributed_pct"] = 100 * (p50 - path) / p50
		}
	}
	return m, nil
}
