package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"roboads/internal/mat"
	"roboads/internal/sensors"
	"roboads/internal/stat"
)

// EngineConfig tunes the multi-mode estimation engine.
type EngineConfig struct {
	// Epsilon is the mode-weight floor of Algorithm 1 line 6
	// (μ ← max(N·μ, ε)). It keeps dismissed modes recoverable, enabling
	// transitions like scenario #10's S0→3→5→1 when an attack ends.
	Epsilon float64
	// WeightByDensity switches the weight update to the paper-literal
	// Gaussian density N_k instead of the innovation p-value. Raw
	// densities are not comparable across modes whose reference blocks
	// have different dimensions or noise scales (a fine-grained
	// reference dominates regardless of consistency), so the default is
	// the p-value; this flag exists for the ablation benchmark.
	WeightByDensity bool
	// AttackPrior folds testing-sensor evidence into the mode weight:
	// each testing sensor contributes max(pvalue(d̂s_t), AttackPrior).
	// Under a wrong hypothesis the corrupted reference drags the shared
	// state, so *several* testing sensors appear corrupted at once and
	// the mode pays the prior once per sensor; the true hypothesis pays
	// it only for sensors actually under attack. This encodes the
	// paper's §II-B assumption that simultaneous corruption of many
	// workflows is unlikely, and breaks the post-absorption symmetry
	// between hypotheses that the reference innovation alone cannot
	// distinguish. Zero disables the term (paper-literal weighting);
	// it is also skipped when WeightByDensity is set.
	AttackPrior float64
	// ActuatorPrior is the actuator-side analog: the mode weight is
	// multiplied by max(pvalue(d̂a), ActuatorPrior). A mode whose
	// reference sensor is corrupted along the control-Jacobian span
	// re-absorbs the corruption as a *persistent* phantom actuator
	// anomaly; charging that hypothesis the actuator prior each
	// iteration gives the true mode an exponential advantage. When a
	// real actuator attack is active every mode estimates it, so the
	// factor cancels across modes and costs nothing. Zero disables.
	ActuatorPrior float64
	// ResyncWeight is the normalized-weight level at or below which a
	// mode's private state is re-synchronized from the consensus each
	// iteration (see Engine.Step). It must sit above Epsilon so that
	// floor-pinned modes stay synced.
	ResyncWeight float64
	// Deprecated: ignored; the mode bank always steps on the calling
	// goroutine.
	Workers int
	// Observer receives instrumentation events (per-Step wall time,
	// dropped readings, weight-floor hits, mode switches). Nil disables
	// instrumentation entirely: the hot path then pays one nil check per
	// site and takes no timestamps.
	// Observation is read-only and cannot perturb engine output; see the
	// Observer contract.
	Observer Observer
}

// DefaultEngineConfig returns the configuration used by the experiments.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		Epsilon:       1e-9,
		AttackPrior:   0.05,
		ActuatorPrior: 0.05,
		ResyncWeight:  1e-6,
	}
}

// Engine is the multi-mode estimation engine of §IV-B: a bank of NUISE
// estimators, one per sensor-condition hypothesis, with likelihood-based
// mode selection (Algorithm 1 lines 4–9).
type Engine struct {
	plant   Plant
	modes   []*Mode
	weights []float64
	// x, px hold the consensus belief (the selected mode's posterior).
	x  mat.Vec
	px *mat.Mat
	// xm, pxm hold each mode's private belief. Running the bank on
	// per-mode states (rather than the paper's shared state) prevents a
	// corrupted-reference mode that happens to be selected at attack
	// onset from absorbing the corruption into everyone's prior and
	// permanently handicapping the clean hypotheses; see Step.
	xm  []mat.Vec
	pxm []*mat.Mat

	cfg      EngineConfig
	k        int
	selected int

	// work is each mode's NUISE workspace, carved once from the mode's
	// arena in scratch. z2 and z1 are each mode's stacked reference and
	// testing readings.
	scratch []*mat.Scratch
	work    []nuiseWork
	z2, z1  []mat.Vec

	// results holds every mode's Result, engine-owned and reused: each
	// Step re-points them from pristine (their storage, carved once in
	// sizeOutputs), since dropTesting re-points a Result's Ds and Ps, and
	// perMode[i] is &results[i] where mode i produced a result this step,
	// nil where it failed. Only the selected Result is copied out (see
	// Output); shapes are each mode's Result dimensions.
	shapes            []resultShape
	results, pristine []Result
	perMode           []*Result

	// commitNext is commit's reused weight-update scratch (the
	// un-normalized next weights); evCovs holds one reusable d×d scratch
	// matrix per (mode, testing sensor) that the χ² statistics copy a Ps
	// block into, evFloorQuads each evidence term's floorQuad and
	// actFloorQuad the actuator term's, and quadBuf the factor and
	// substitution buffer the statistics share (mat.SPDInvQuadForm).
	// sensorQuads and actQuads hold each mode's statistics of this step
	// (see sensorQuad and actuatorQuad).
	commitNext   []float64
	evCovs       [][]*mat.Mat
	evFloorQuads [][]float64
	actFloorQuad float64
	quadBuf      []float64
	sensorQuads  [][]float64
	actQuads     []float64

	// sensorNames is the union of every mode's reference and testing
	// workflow names and sensorDims their reading lengths. Each Step looks
	// every sensor up once (gather), checks the reading's length and
	// parks it in frame (nil: missing this iteration); refIdx and testIdx
	// are each mode's reference and testing sensors as indices into it,
	// so stacking a mode's readings is copies, not map lookups.
	sensorNames     []string
	sensorDims      []int
	frame           []mat.Vec
	refIdx, testIdx [][]int

	// obs is EngineConfig.Observer; nil when instrumentation is off.
	// stats is the reused StepStats record handed to the observer
	// (borrowed, never retained).
	obs   Observer
	stats StepStats
}

// Output is one control iteration's engine result. It is the caller's to
// keep: the Output, its Result and every vector and matrix in them are
// fresh each Step (one block, see Engine.output) and the engine never
// writes to them again. The other modes' Results stay inside the engine.
type Output struct {
	// Iteration is the control iteration index k.
	Iteration int
	// Selected is the index of the highest-weight mode M_k.
	Selected int
	// SelectedMode is modes[Selected].
	SelectedMode *Mode
	// Weights are the normalized mode weights μ.
	Weights []float64
	// Result is the selected mode's NUISE result.
	Result *Result
	// SensorAnomalies is the per-testing-sensor split of the selected
	// mode's d̂s; sensor j's covariance is the diagonal block of
	// Result.Ps at its offset in d̂s.
	SensorAnomalies []SensorAnomaly
	// SensorStats[j] is SensorAnomalies[j]'s χ² statistic
	// d̂sᵀ·Ps⁻¹·d̂s over its covariance block, and ActuatorStat the
	// selected mode's d̂aᵀ·Pa⁻¹·d̂a; a covariance that does not factor
	// scores 0. They are the statistics the weight update's evidence
	// terms test (EngineConfig.AttackPrior, ActuatorPrior).
	SensorStats  []float64
	ActuatorStat float64
}

// NewEngine builds an engine with the given hypothesis set and initial
// state belief x0 ~ N(x0, p0). Mode weights start uniform.
func NewEngine(plant Plant, modes []*Mode, x0 mat.Vec, p0 *mat.Mat, cfg EngineConfig) (*Engine, error) {
	if err := plant.Validate(); err != nil {
		return nil, err
	}
	if len(modes) == 0 {
		return nil, ErrNoModes
	}
	n := plant.Model.StateDim()
	if len(x0) != n || p0.Rows() != n || p0.Cols() != n {
		return nil, fmt.Errorf("core: initial belief must be %d-dimensional", n)
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = DefaultEngineConfig().Epsilon
	}
	weights := make([]float64, len(modes))
	xm := make([]mat.Vec, len(modes))
	pxm := make([]*mat.Mat, len(modes))
	for i := range weights {
		weights[i] = 1 / float64(len(modes))
		xm[i] = x0.Clone()
		pxm[i] = p0.Clone()
	}
	scratch := make([]*mat.Scratch, len(modes))
	for i := range scratch {
		scratch[i] = mat.NewScratch()
	}
	e := &Engine{
		plant:   plant,
		modes:   append([]*Mode(nil), modes...),
		weights: weights,
		x:       x0.Clone(),
		px:      p0.Clone(),
		xm:      xm,
		pxm:     pxm,
		cfg:     cfg,
		scratch: scratch,
		obs:     cfg.Observer,
	}
	if err := e.indexSensors(); err != nil {
		return nil, err
	}
	e.sizeOutputs()
	return e, nil
}

// Close is a no-op: an engine holds nothing beyond its memory. It is kept
// for the callers that release their pipelines explicitly.
func (e *Engine) Close() {}

// Modes returns the engine's hypothesis set.
func (e *Engine) Modes() []*Mode {
	return append([]*Mode(nil), e.modes...)
}

// State returns the current fused state estimate and covariance.
func (e *Engine) State() (mat.Vec, *mat.Mat) {
	return e.x.Clone(), e.px.Clone()
}

// indexSensors numbers the sensing workflows the mode set reads and
// records, per mode, which of them stack into its reference and testing
// readings.
func (e *Engine) indexSensors() error {
	index := make(map[string]int)
	indices := func(parts []sensors.Sensor) ([]int, error) {
		idx := make([]int, len(parts))
		for j, s := range parts {
			at, seen := index[s.Name()]
			if !seen {
				at = len(e.sensorNames)
				index[s.Name()] = at
				e.sensorNames = append(e.sensorNames, s.Name())
				e.sensorDims = append(e.sensorDims, s.Dim())
			} else if e.sensorDims[at] != s.Dim() {
				return nil, fmt.Errorf("core: sensor %q reads %d values in one mode and %d in another",
					s.Name(), e.sensorDims[at], s.Dim())
			}
			idx[j] = at
		}
		return idx, nil
	}
	e.refIdx = make([][]int, len(e.modes))
	e.testIdx = make([][]int, len(e.modes))
	for i, m := range e.modes {
		var err error
		if e.refIdx[i], err = indices(m.referenceParts); err != nil {
			return err
		}
		if e.testIdx[i], err = indices(m.Testing); err != nil {
			return err
		}
	}
	e.frame = make([]mat.Vec, len(e.sensorNames))
	return nil
}

// sizeOutputs allocates the per-mode reading stacks, NUISE workspaces
// and χ² statistics, the weight update's scratch (floorQuad resolved per
// evidence term) and every mode's Result, carved once from one slab.
func (e *Engine) sizeOutputs() {
	m := len(e.modes)
	e.shapes = make([]resultShape, m)
	e.z2 = make([]mat.Vec, m)
	e.z1 = make([]mat.Vec, m)
	e.commitNext = make([]float64, m)
	e.evCovs = make([][]*mat.Mat, m)
	e.evFloorQuads = make([][]float64, m)
	e.sensorQuads = make([][]float64, m)
	e.actQuads = make([]float64, m)
	e.work = make([]nuiseWork, m)
	widest := e.plant.Model.ControlDim()
	e.actFloorQuad = floorQuad(e.cfg.ActuatorPrior, e.plant.Model.ControlDim())
	floats := 0
	for i, mode := range e.modes {
		sh := newResultShape(e.plant.Model, mode.Reference, mode.testingStacked)
		e.shapes[i] = sh
		e.work[i].carve(e.scratch[i], sh)
		e.sensorQuads[i] = make([]float64, len(mode.Testing))
		e.z2[i] = make(mat.Vec, sh.p2)
		e.z1[i] = make(mat.Vec, sh.p1)
		floats += sh.floats()
		for _, s := range mode.Testing {
			e.evCovs[i] = append(e.evCovs[i], mat.New(s.Dim(), s.Dim()))
			e.evFloorQuads[i] = append(e.evFloorQuads[i], floorQuad(e.cfg.AttackPrior, s.Dim()))
			widest = max(widest, s.Dim())
		}
	}
	e.quadBuf = make([]float64, widest*(widest+1))
	slab := mat.NewSlab(floats, resultMats*m)
	e.pristine = make([]Result, m)
	for i, sh := range e.shapes {
		sh.carve(slab, &e.pristine[i])
	}
	e.results = make([]Result, m)
	e.perMode = make([]*Result, m)
}

// ErrAllModesFailed indicates every NUISE instance errored in one
// iteration, leaving the engine without a state update.
var ErrAllModesFailed = errors.New("core: all modes failed")

// ErrFrameShape indicates a frame whose command or one of whose readings
// has the wrong length for the engine's model and sensors. The frame is
// refused before any mode runs: the engine is exactly as it was.
var ErrFrameShape = errors.New("core: frame shape mismatch")

// ErrFrameNotFinite indicates a frame whose command or one of whose
// readings holds a NaN or an infinity (the binary frame wire can carry
// them; JSON cannot). Refused like ErrFrameShape, before any mode runs —
// let in, it fails every mode and surfaces as ErrAllModesFailed.
var ErrFrameNotFinite = errors.New("core: frame not finite")

// gather validates one frame and parks each sensor's reading in e.frame
// (nil: missing). A reading the mode set never looks at is ignored, as
// it always was.
func (e *Engine) gather(u mat.Vec, readings map[string]mat.Vec) error {
	if q := e.plant.Model.ControlDim(); len(u) != q {
		return fmt.Errorf("%w: command has %d values, want %d", ErrFrameShape, len(u), q)
	}
	if err := allFinite(u); err != nil {
		return fmt.Errorf("%w: command: %v", ErrFrameNotFinite, err)
	}
	for s, name := range e.sensorNames {
		z, ok := readings[name]
		if ok && len(z) != e.sensorDims[s] {
			return fmt.Errorf("%w: sensor %q reading has %d values, want %d",
				ErrFrameShape, name, len(z), e.sensorDims[s])
		}
		if err := allFinite(z); err != nil {
			return fmt.Errorf("%w: sensor %q reading: %v", ErrFrameNotFinite, name, err)
		}
		e.frame[s] = z
	}
	return nil
}

// Step runs one control iteration (Algorithm 1 lines 2–9): the bank of
// per-mode NUISE runs, in mode order on the calling goroutine, followed
// by the weight update with floor ε, normalization, and mode selection.
// readings maps each sensing workflow name to its (possibly corrupted)
// reading z_k. A reading missing from the map (a
// dropped sensor packet) degrades only the modes that depend on that
// sensor — a mode loses the iteration when its reference is incomplete,
// and runs reference-only (no d̂s) when only its testing block is — it
// never sinks the whole bank. A command or reading of the wrong length, or
// holding a NaN or an infinity, is a different matter: the frame is refused
// with ErrFrameShape or ErrFrameNotFinite before any mode runs, and the
// engine is exactly as it was.
func (e *Engine) Step(u mat.Vec, readings map[string]mat.Vec) (*Output, error) {
	return e.StepContext(context.Background(), u, readings)
}

// StepContext is Step with cancellation: when ctx is cancelled the
// iteration is abandoned and ctx.Err() returned. Cancellation is
// all-or-nothing — per-mode results are gathered before any engine state
// is committed, so an aborted StepContext leaves the weights, the mode
// beliefs, and the iteration counter exactly as they were and the next
// (Step or StepContext) call continues the mission bit-for-bit as if the
// cancelled call never happened. A ctx without a Done channel
// (context.Background, context.TODO) takes the identical code path as
// Step, so the two entry points are pinned to the same outputs by the
// determinism tests.
func (e *Engine) StepContext(ctx context.Context, u mat.Vec, readings map[string]mat.Vec) (*Output, error) {
	// cancellable gates every ctx check: the Done channel is nil for
	// background contexts, keeping the plain-Step hot path free of
	// ctx.Err() calls (the BenchmarkEngineStep regression gate pins it).
	cancellable := ctx.Done() != nil
	if cancellable && ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Instrumentation preamble: only when an observer is attached does
	// the step read the clock. The obs == nil path must stay
	// branch-predictable and timestamp-free — it is pinned by the
	// BenchmarkEngineStep regression gate.
	obs := e.obs
	var stepStart time.Time
	if obs != nil {
		stepStart = time.Now()
	}
	// A malformed frame is refused here, before any mode runs and before
	// anything of the engine's moves.
	if err := e.gather(u, readings); err != nil {
		return nil, err
	}
	if obs != nil {
		for s, z := range e.frame {
			if z == nil {
				obs.DroppedReading(e.sensorNames[s])
			}
		}
	}

	copy(e.results, e.pristine)
	clear(e.perMode)
	for i := range e.modes {
		if cancellable && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if e.stepMode(i, u, &e.results[i]) {
			e.perMode[i] = &e.results[i]
		}
	}
	if cancellable && ctx.Err() != nil {
		// Nothing has been committed: the engine-owned results, the
		// reading stacks and the NUISE workspaces are the only things
		// touched, and the next Step overwrites them all.
		return nil, ctx.Err()
	}

	return e.commit(stepStart)
}

// commit is the tail of a step — belief commit, weight update,
// selection, resync, output assembly. It runs after every mode has
// stepped (not inside stepMode) so that a cancelled StepContext aborts
// with no partial per-mode state written. stepStart is the caller's
// instrumentation timestamp, read only when an observer is attached.
func (e *Engine) commit(stepStart time.Time) (*Output, error) {
	perMode := e.perMode
	obs := e.obs

	// Commit each surviving mode's private belief. The belief buffers are
	// engine-private (the constructor clones them in, ExportState and
	// State clone them out), so the copies land in place — value-identical
	// to the Clones they replace, without the per-step allocations.
	for i, res := range perMode {
		if res != nil {
			copy(e.xm[i], res.X)
			mat.CopyInto(e.pxm[i], res.Px)
		}
	}

	// Weight update μ ← N·μ, normalize, then floor at ε and renormalize
	// (Algorithm 1 lines 6 and 8). Flooring after normalization keeps
	// the floor from erasing relative mode history: likelihood weights
	// below 1 (p-values always are) would otherwise drag every mode to
	// ε within tens of iterations and reset the bank each step.
	next := e.commitNext
	var sum float64
	for i := range e.weights {
		likelihood := 0.0
		if perMode[i] != nil && !perMode[i].Implausible {
			if e.cfg.WeightByDensity {
				likelihood = perMode[i].Likelihood
			} else {
				likelihood = perMode[i].PValue * e.testingEvidence(i, perMode[i])
			}
		}
		next[i] = e.weights[i] * likelihood
		sum += next[i]
	}
	floorHits := 0
	if sum > 0 {
		var floored float64
		for i := range next {
			next[i] /= sum
			if next[i] < e.cfg.Epsilon {
				next[i] = e.cfg.Epsilon
				floorHits++
			}
			floored += next[i]
		}
		for i := range next {
			next[i] /= floored
		}
		copy(e.weights, next)
	}
	// sum == 0 (every mode collapsed this iteration) carries the
	// previous weights forward unchanged: no information this round.

	// Mode selection: argmax normalized weight among surviving modes,
	// with hysteresis — ties keep the previously selected mode. Without
	// it, a transient that floors every weight (e.g. a LiDAR beam
	// crossing a wall-assignment discontinuity) would hand the engine to
	// an arbitrary mode, and a corrupted-reference mode picked that way
	// absorbs the corruption into the shared state and never loses again.
	usable := func(i int) bool { return perMode[i] != nil && !perMode[i].Implausible }
	selected := -1
	best := -1.0
	if e.selected < len(perMode) && usable(e.selected) {
		selected, best = e.selected, e.weights[e.selected]
	}
	for i, w := range e.weights {
		if usable(i) && w > best {
			selected, best = i, w
		}
	}
	if selected < 0 {
		// Every mode is implausible this iteration (e.g. a violent
		// transient): fall back to any mode that at least computed, so
		// the engine keeps a state estimate.
		for i, w := range e.weights {
			if perMode[i] != nil && w > best {
				selected, best = i, w
			}
		}
	}
	if selected < 0 {
		return nil, ErrAllModesFailed
	}
	switched := e.k > 0 && selected != e.selected
	e.selected = selected

	// The selected mode's posterior is the consensus estimate
	// (Algorithm 1 line 9).
	res := perMode[selected]
	copy(e.x, res.X)
	mat.CopyInto(e.px, res.Px)

	// Re-synchronize rejected hypotheses from the consensus: a mode whose
	// weight has collapsed (or whose step failed) restarts from the
	// selected mode's belief. A corrupted-reference mode therefore keeps
	// paying the corruption cost against the consensus frame every
	// iteration instead of drifting into a self-consistent biased frame,
	// and a mode whose sensor recovers from an attack (scenario #10's
	// S…→1 transition) re-enters from a sane state.
	for i := range e.modes {
		if i == selected {
			continue
		}
		if perMode[i] == nil || e.weights[i] <= e.cfg.ResyncWeight {
			copy(e.xm[i], e.x)
			mat.CopyInto(e.pxm[i], e.px)
		}
	}

	out := e.output(selected, res)
	if obs != nil {
		failed := 0
		var fallbacks int64
		for i, r := range perMode {
			if r == nil {
				failed++
			}
			fallbacks += e.work[i].fallbacks
			e.work[i].fallbacks = 0
		}
		e.stats = StepStats{
			Iteration:       e.k,
			WallNanos:       time.Since(stepStart).Nanoseconds(),
			Selected:        selected,
			SelectedName:    e.modes[selected].Name,
			Switched:        switched,
			FloorHits:       floorHits,
			ModesFailed:     failed,
			JacobiFallbacks: fallbacks,
			Weights:         e.weights,
			PValue:          res.PValue,
			Likelihood:      res.Likelihood,
		}
		obs.EngineStep(&e.stats)
	}
	e.k++
	return out, nil
}

// output is what a Step hands its caller: the Output and a copy of the
// selected mode's Result res in one allocation, and in one exact-size
// slab every float of that Result, of the weights and of the selected
// mode's anomaly split and χ² statistics.
func (e *Engine) output(selected int, res *Result) *Output {
	e.selectedQuads(selected, res)
	sh := e.shapes[selected]
	sh.p1 = len(res.Ds) // 0 when this step dropped the testing block
	floats := sh.floats() + len(e.weights)
	if res.Ds != nil {
		floats += sh.p1 + len(e.sensorQuads[selected])
	}
	block := new(struct {
		out Output
		res Result
	})
	slab := mat.NewSlab(floats, resultMats)
	block.res = *res
	block.res.X = copyVec(slab, res.X)
	block.res.Px = copyMat(slab, res.Px)
	block.res.Da = copyVec(slab, res.Da)
	block.res.Pa = copyMat(slab, res.Pa)
	block.res.Innovation = copyVec(slab, res.Innovation)
	block.res.Ps = copyMat(slab, res.Ps)
	block.out = Output{
		Iteration:    e.k,
		Selected:     selected,
		SelectedMode: e.modes[selected],
		Weights:      copyVec(slab, e.weights),
		Result:       &block.res,
		ActuatorStat: e.actQuads[selected],
	}
	if res.Ds != nil {
		block.res.Ds = copyVec(slab, res.Ds)
		block.out.SensorAnomalies = e.modes[selected].splitDs(res.Ds, slab)
		block.out.SensorStats = copyVec(slab, e.sensorQuads[selected])
	}
	return &block.out
}

// copyVec and copyMat return a copy of v or m carved from slab.
func copyVec(slab *mat.Slab, v []float64) mat.Vec {
	c := slab.Vec(len(v))
	copy(c, v)
	return c
}

func copyMat(slab *mat.Slab, m *mat.Mat) *mat.Mat {
	return mat.CopyInto(slab.Mat(m.Rows(), m.Cols()), m)
}

// stepMode runs mode i's NUISE for this iteration into res, which the
// caller carved to the mode's shape, and reports whether the mode
// produced a result. It reads the frame gather parked and the mode's
// private belief (e.xm, e.pxm) and writes only mode i's reading stacks
// and workspace and res; the belief is committed after the whole bank has
// stepped, so an aborted StepContext leaves it untouched. Failure
// semantics mirror the weight floor: a missing reference reading or a
// NUISE error fails the mode (it sits out this iteration and takes the
// floor), while a missing testing reading degrades the mode to a
// reference-only update (no d̂s) rather than failing it.
func (e *Engine) stepMode(i int, u mat.Vec, res *Result) bool {
	m := e.modes[i]
	z2 := e.z2[i]
	if !e.stack(z2, e.refIdx[i]) {
		return false
	}
	testing := m.testingStacked
	var z1 mat.Vec
	if testing != nil {
		if z1 = e.z1[i]; !e.stack(z1, e.testIdx[i]) {
			testing, z1 = nil, nil
			res.dropTesting()
		}
	}
	return nuiseStep(e.plant, m.Reference, testing, u, e.xm[i], e.pxm[i], z1, z2, &e.work[i], res) == nil
}

// stack concatenates the frame's readings of the listed sensors into
// dst, reporting false when one is missing. gather checked the lengths,
// so the parts fill dst exactly.
func (e *Engine) stack(dst mat.Vec, sensorIdx []int) bool {
	off := 0
	for _, s := range sensorIdx {
		z := e.frame[s]
		if z == nil {
			return false
		}
		off += copy(dst[off:], z)
	}
	return true
}

// testingEvidence returns Π_t max(pvalue(d̂s_t), AttackPrior) over mode
// i's testing sensors, times max(pvalue(d̂a), ActuatorPrior) (see
// EngineConfig.AttackPrior and ActuatorPrior). Its χ² statistics are the
// ones the decision layer tests, so computing them here records them for
// the mode's Output too.
func (e *Engine) testingEvidence(i int, res *Result) float64 {
	evidence := 1.0
	if e.cfg.AttackPrior > 0 && res.Ds != nil {
		off := 0
		for j, cov := range e.evCovs[i] {
			d := cov.Rows()
			quad, ok := e.sensorQuad(i, j, off, res)
			evidence *= flooredPValue(quad, ok, d, e.cfg.AttackPrior, e.evFloorQuads[i][j])
			off += d
		}
	}
	if e.cfg.ActuatorPrior > 0 && res.Da != nil {
		quad, ok := e.actuatorQuad(i, res)
		evidence *= flooredPValue(quad, ok, res.Da.Len(), e.cfg.ActuatorPrior, e.actFloorQuad)
	}
	return evidence
}

// selectedQuads computes the χ² statistics of the selected mode that
// the weight update did not: all of them under WeightByDensity or when
// the mode is implausible (no evidence terms ran), one side when its
// prior is 0.
func (e *Engine) selectedQuads(selected int, res *Result) {
	evidenced := !e.cfg.WeightByDensity && !res.Implausible
	if res.Ds != nil && !(evidenced && e.cfg.AttackPrior > 0) {
		off := 0
		for j, cov := range e.evCovs[selected] {
			e.sensorQuad(selected, j, off, res)
			off += cov.Rows()
		}
	}
	if !(evidenced && e.cfg.ActuatorPrior > 0) {
		e.actuatorQuad(selected, res)
	}
}

// sensorQuad records and returns the χ² statistic d̂sᵀ·Ps⁻¹·d̂s of mode
// i's testing sensor j, whose block starts at row off of res's d̂s and
// Ps, and whether the block factored (0 is recorded when it did not).
func (e *Engine) sensorQuad(i, j, off int, res *Result) (float64, bool) {
	cov := e.evCovs[i][j]
	d := cov.Rows()
	quad, ok := chiSquare(res.Ps.SubmatrixInto(cov, off, off), res.Ds[off:off+d], e.quadBuf)
	e.sensorQuads[i][j] = quad
	return quad, ok
}

// actuatorQuad is sensorQuad for mode i's d̂aᵀ·Pa⁻¹·d̂a.
func (e *Engine) actuatorQuad(i int, res *Result) (float64, bool) {
	quad, ok := chiSquare(res.Pa, res.Da, e.quadBuf)
	e.actQuads[i] = quad
	return quad, ok
}

// chiSquare returns vᵀ·cov⁻¹·v and true, or 0 and false when cov does
// not factor: a singular covariance is non-informative, not alarming.
// buf is mat.SPDInvQuadForm's buffer.
func chiSquare(cov *mat.Mat, v mat.Vec, buf []float64) (float64, bool) {
	quad, err := mat.SPDInvQuadForm(cov, v, buf)
	if err != nil {
		return 0, false
	}
	return quad, true
}

// flooredPValue returns max(P(χ²_k > quad), floor): the floor when the
// covariance did not factor (ok false), the statistic is negative or it
// reaches fromQuad (floorQuad: the incomplete gamma is skipped).
func flooredPValue(quad float64, ok bool, k int, floor, fromQuad float64) float64 {
	pv := 0.0
	if ok && quad >= 0 {
		if quad >= fromQuad {
			return floor
		}
		if cdf, err := stat.ChiSquareCDF(quad, k); err == nil {
			pv = 1 - cdf
		}
	}
	if pv < floor {
		pv = floor
	}
	return pv
}

// floorQuad returns the χ²_k statistic from which the tail is below floor
// for certain: the floor's quantile t times 1 + 1e-6, where the true tail
// is below the floor by ~1e-7 or more (the density times t·1e-6) and
// ChiSquareCDF is good to ~1e-15, so max(1 − CDF, floor) is the floor bit
// for bit. A floor with no quantile gets +Inf: nothing skips.
func floorQuad(floor float64, k int) float64 {
	t, err := stat.ChiSquareQuantileTable(floor, k)
	if err != nil {
		return math.Inf(1)
	}
	return t * (1 + 1e-6)
}
