package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"roboads/internal/mat"
)

// EngineState is the complete cross-iteration state of an Engine: the
// portion of the recursive filter that must survive a process restart
// for the next Step to be bit-for-bit identical to an uninterrupted run.
// Everything else the engine holds (NUISE workspaces, observer
// bookkeeping) is reconstructed within a single Step and is deliberately
// excluded. The field encoding is plain float64 slices,
// so any exact-float64 codec (encoding/json included) round-trips it
// without loss.
type EngineState struct {
	// K is the control iteration counter.
	K int `json:"k"`
	// Selected is the currently selected mode index (the hysteresis
	// anchor of the next Step's mode selection).
	Selected int `json:"selected"`
	// Weights are the normalized mode weights μ_k.
	Weights []float64 `json:"weights"`
	// X and Px are the consensus belief (row-major n×n covariance).
	X  []float64 `json:"x"`
	Px []float64 `json:"px"`
	// Modes holds each mode's private belief, indexed like the engine's
	// hypothesis set.
	Modes []ModeBelief `json:"modes"`
	// ConfigHash fingerprints the output-relevant EngineConfig scalars
	// (Epsilon, priors, resync level, density switch). Import refuses a
	// state recorded under a different configuration: restoring it would
	// silently continue the mission under different weighting dynamics.
	ConfigHash uint64 `json:"configHash"`
}

// ModeBelief is one mode's private state belief.
type ModeBelief struct {
	// Name is the mode's hypothesis label, validated on import so a
	// state cannot be restored into an engine with a different mode set.
	Name string `json:"name"`
	// X and Px are the mode's private posterior (row-major covariance).
	X  []float64 `json:"x"`
	Px []float64 `json:"px"`
}

// ErrStateMismatch indicates an exported pipeline state that does not
// fit the receiving pipeline: different mode set, state dimension,
// window shape, or configuration fingerprint.
var ErrStateMismatch = errors.New("core: state does not match pipeline configuration")

// configHash fingerprints the EngineConfig fields that influence engine
// output. Observer is excluded: it is contractually output-neutral, so a
// state may be restored into an engine with instrumentation attached.
func (cfg EngineConfig) configHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putF64 := func(v float64) {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	putF64(cfg.Epsilon)
	putF64(cfg.AttackPrior)
	putF64(cfg.ActuatorPrior)
	putF64(cfg.ResyncWeight)
	if cfg.WeightByDensity {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// ExportState captures the engine's complete cross-iteration state. The
// returned value shares no memory with the engine and stays valid across
// further Steps. The engine must not be stepped concurrently.
func (e *Engine) ExportState() *EngineState {
	st := &EngineState{
		K:          e.k,
		Selected:   e.selected,
		Weights:    append([]float64(nil), e.weights...),
		X:          append([]float64(nil), e.x...),
		Px:         flattenMat(e.px),
		Modes:      make([]ModeBelief, len(e.modes)),
		ConfigHash: e.cfg.configHash(),
	}
	for i := range e.modes {
		st.Modes[i] = ModeBelief{
			Name: e.modes[i].Name,
			X:    append([]float64(nil), e.xm[i]...),
			Px:   flattenMat(e.pxm[i]),
		}
	}
	return st
}

// ImportState replaces the engine's cross-iteration state with st,
// validating that st fits this engine: same mode set (by name and
// order), same state dimension, same configuration fingerprint, and
// finite values throughout. On success the next Step continues the
// recorded mission bit-for-bit; on error the engine is unchanged. The
// engine must not be stepped concurrently.
func (e *Engine) ImportState(st *EngineState) error {
	if st == nil {
		return fmt.Errorf("%w: nil engine state", ErrStateMismatch)
	}
	if st.ConfigHash != e.cfg.configHash() {
		return fmt.Errorf("%w: engine config hash %x (want %x)", ErrStateMismatch, st.ConfigHash, e.cfg.configHash())
	}
	if len(st.Modes) != len(e.modes) || len(st.Weights) != len(e.modes) {
		return fmt.Errorf("%w: %d modes / %d weights (engine has %d modes)", ErrStateMismatch, len(st.Modes), len(st.Weights), len(e.modes))
	}
	if st.Selected < 0 || st.Selected >= len(e.modes) || st.K < 0 {
		return fmt.Errorf("%w: selected=%d k=%d out of range", ErrStateMismatch, st.Selected, st.K)
	}
	n := len(e.x)
	x, px, err := beliefFromState(st.X, st.Px, n)
	if err != nil {
		return fmt.Errorf("%w: consensus belief: %v", ErrStateMismatch, err)
	}
	if err := allFinite(st.Weights); err != nil {
		return fmt.Errorf("%w: weights: %v", ErrStateMismatch, err)
	}
	type belief struct {
		x  mat.Vec
		px *mat.Mat
	}
	beliefs := make([]belief, len(st.Modes))
	for i, mb := range st.Modes {
		if mb.Name != e.modes[i].Name {
			return fmt.Errorf("%w: mode %d is %q (want %q)", ErrStateMismatch, i, mb.Name, e.modes[i].Name)
		}
		mx, mpx, err := beliefFromState(mb.X, mb.Px, n)
		if err != nil {
			return fmt.Errorf("%w: mode %q belief: %v", ErrStateMismatch, mb.Name, err)
		}
		beliefs[i] = belief{x: mx, px: mpx}
	}
	// All validation passed: commit atomically.
	e.k = st.K
	e.selected = st.Selected
	copy(e.weights, st.Weights)
	e.x = x
	e.px = px
	for i := range beliefs {
		e.xm[i] = beliefs[i].x
		e.pxm[i] = beliefs[i].px
	}
	return nil
}

// flattenMat copies a matrix into a row-major slice.
func flattenMat(m *mat.Mat) []float64 {
	out := make([]float64, 0, m.Rows()*m.Cols())
	for i := 0; i < m.Rows(); i++ {
		out = append(out, m.Row(i)...)
	}
	return out
}

// beliefFromState validates and rebuilds one (x, Px) belief of state
// dimension n from its flat encoding.
func beliefFromState(x, px []float64, n int) (mat.Vec, *mat.Mat, error) {
	if len(x) != n || len(px) != n*n {
		return nil, nil, fmt.Errorf("dims %d/%d (want %d/%d)", len(x), len(px), n, n*n)
	}
	if err := allFinite(x); err != nil {
		return nil, nil, err
	}
	if err := allFinite(px); err != nil {
		return nil, nil, err
	}
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, px[i*n+j])
		}
	}
	return mat.Vec(append([]float64(nil), x...)), m, nil
}

// allFinite rejects NaN/Inf contamination before it enters the filter.
// It sits in every Step's prologue (Engine.gather), hence the one
// subtraction per value: f-f is 0 for a finite f and NaN otherwise.
func allFinite(v []float64) error {
	for i, f := range v {
		if f-f != 0 {
			return fmt.Errorf("non-finite value %g at index %d", f, i)
		}
	}
	return nil
}
