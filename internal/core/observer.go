package core

// StepStats is one Engine.Step's instrumentation record, delivered to
// the configured Observer after the weight update and mode selection.
// The struct (and its Weights slice) is owned by the engine and reused
// across iterations: observers must read synchronously and copy anything
// they retain.
type StepStats struct {
	// Iteration is the control iteration index k.
	Iteration int
	// WallNanos is the wall-clock duration of the whole Step.
	WallNanos int64
	// Selected is the selected mode index; SelectedName its name.
	Selected     int
	SelectedName string
	// Switched reports that the selected mode differs from the previous
	// iteration's (always false on iteration 0).
	Switched bool
	// FloorHits counts modes whose normalized weight was pinned at the
	// ε floor this iteration.
	FloorHits int
	// ModesFailed counts modes that produced no result this iteration
	// (missing reference reading or NUISE error).
	ModesFailed int
	// JacobiFallbacks is the number of this engine's NUISE steps that
	// abandoned the Cholesky fast path for the Jacobi PseudoInverseSym
	// fallback since its previous StepStats (this iteration's, and any
	// of a cancelled StepContext). Each mode counts its own, so engines
	// stepping concurrently never count each other's.
	JacobiFallbacks int64
	// Weights is the normalized mode weight vector (borrowed — do not
	// retain).
	Weights []float64
	// PValue and Likelihood are the selected mode's innovation
	// chi-square p-value and Gaussian density N_k.
	PValue, Likelihood float64
}

// Observer receives engine instrumentation events. All methods are
// called synchronously from Engine.Step, on the stepping goroutine; an
// observer shared by engines stepped concurrently must be safe for
// concurrent use. Implementations must not block and must not mutate any argument:
// observation is strictly read-only, which is what keeps engine output
// bit-for-bit identical with and without an observer attached (the
// determinism test pins this).
//
// A nil Observer in EngineConfig disables every hook; the disabled path
// costs one nil check per site and is guarded by the BenchmarkEngineStep
// regression gate.
type Observer interface {
	// EngineStep delivers the per-iteration record after mode selection.
	EngineStep(*StepStats)
	// DroppedReading reports a sensing workflow expected by the mode set
	// but missing from this iteration's readings map.
	DroppedReading(sensor string)
}
