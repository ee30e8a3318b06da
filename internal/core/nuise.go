// Package core implements the paper's primary contribution: the nonlinear
// unknown input and state estimation algorithm (NUISE, Algorithm 2) and
// the multi-mode estimation engine of §IV-B that runs one NUISE instance
// per sensor-condition hypothesis, selecting the most likely mode each
// control iteration.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"roboads/internal/dynamics"
	"roboads/internal/mat"
	"roboads/internal/sensors"
	"roboads/internal/stat"
)

// Plant bundles the robot model and noise statistics that every NUISE
// instance linearizes against.
type Plant struct {
	// Model is the kinematic model f of equation (1).
	Model dynamics.Model
	// Q is the process noise covariance (assumed Gaussian, §III-A).
	Q *mat.Mat
	// AngleStates lists state components that are angles and must be
	// wrapped after additive updates (index 2 for both robot models).
	AngleStates []int
	// UMax optionally bounds |u + d̂a| per control component. Executed
	// commands are produced by physical actuators and therefore bounded;
	// a mode whose estimated executed command violates the bound is
	// physically impossible and is reported Implausible, which the
	// engine treats as zero likelihood. This closes the hijack where a
	// corrupted-reference mode absorbs a sensor bias aligned with the
	// direction of travel into an enormous phantom actuator anomaly.
	// Empty or zero entries disable the check.
	UMax mat.Vec
}

// Validate checks the plant dimensions.
func (p Plant) Validate() error {
	if p.Model == nil {
		return errors.New("core: plant has no model")
	}
	n := p.Model.StateDim()
	if p.Q == nil || p.Q.Rows() != n || p.Q.Cols() != n {
		return fmt.Errorf("core: Q must be %dx%d", n, n)
	}
	return nil
}

func (p Plant) wrapState(x mat.Vec) mat.Vec {
	for _, i := range p.AngleStates {
		x[i] = dynamics.NormalizeAngle(x[i])
	}
	return x
}

// Result is the output of one NUISE step for one mode (the per-mode
// quantities of Fig. 3).
type Result struct {
	// X is the state estimate x̂_{k|k}.
	X mat.Vec
	// Px is the state estimation error covariance.
	Px *mat.Mat
	// Da is the actuator anomaly vector estimate d̂a_{k-1}.
	Da mat.Vec
	// Pa is the covariance of Da.
	Pa *mat.Mat
	// Ds is the stacked testing-sensor anomaly vector estimate d̂s_k
	// (empty when the mode has no testing sensors).
	Ds mat.Vec
	// Ps is the covariance of Ds.
	Ps *mat.Mat
	// Likelihood is N_k, the Gaussian density of Algorithm 2 line 20.
	Likelihood float64
	// PValue is P(χ²_n > νᵀ·R̃2†·ν): the probability of an innovation at
	// least this surprising under the mode's hypothesis. Unlike the raw
	// density, it is comparable across modes with different measurement
	// dimensions and noise scales, so the engine weights modes by it
	// (see EngineConfig.WeightByDensity for the paper-literal variant).
	PValue float64
	// Innovation is ν_k = z2 − h2(x̂_{k|k-1}), kept for diagnostics.
	Innovation mat.Vec
	// Implausible reports that the estimated executed command u + d̂a
	// violates the plant's physical actuator bounds (Plant.UMax), so
	// this mode's hypothesis cannot be true this iteration.
	Implausible bool
	// DaValid reports whether the actuator anomaly could be estimated
	// this iteration. It is false when rank(C2·G) < dim(u) — e.g. a
	// bicycle at standstill, where steering has no observable effect —
	// in which case the step degrades to a standard EKF update with
	// d̂a = 0 and an uninformative Pa, and the decision maker skips the
	// actuator test.
	DaValid bool
}

// Estimation failure modes.
var (
	// ErrIllConditioned indicates a covariance inversion failed.
	ErrIllConditioned = errors.New("core: ill-conditioned covariance")
	// ErrDiverged indicates NaN/Inf contamination of the estimates.
	ErrDiverged = errors.New("core: estimator diverged")
)

// NUISE runs one step of Algorithm 2 for a single mode.
//
// Inputs: the planned command u_{k-1}, the previous estimate
// x̂_{k-1|k-1} with covariance Px_{k-1}, the testing-sensor readings z1
// (may be nil when the mode has no testing sensors), and the
// reference-sensor readings z2.
//
// A note on signs: the paper's printed Algorithm 2 is internally
// inconsistent about the cross-covariance between the compensated
// prediction error and the reference measurement noise (lines 11/12/14
// print +C2·G·M2·R2 terms where line 18 prints −). Deriving from
// x̃_{k|k-1} = (I − G·M2·C2)(A·x̃ + ζ) − G·M2·ξ2 gives
// S ≔ E[x̃_{k|k-1}·ξ2ᵀ] = −G·M2·R2; we implement that self-consistent
// version, which reduces to the standard Gillijns–De Moor filter in the
// linear case and matches the paper's line 18 likelihood covariance.
func NUISE(plant Plant, reference, testing sensors.Sensor, u, xPrev mat.Vec, pxPrev *mat.Mat, z1, z2 mat.Vec) (*Result, error) {
	return NUISEScratch(plant, reference, testing, u, xPrev, pxPrev, z1, z2, nil)
}

// NUISEScratch is NUISE with an explicit scratch arena for the step's
// temporaries: the predictions f, h2, h1 and their Jacobians A, G, C2,
// C1 are evaluated once per point through the models' fused fast paths
// (FAGInto, HCInto), and everything stored in the Result is carved from
// one private mat.Slab that nothing else ever writes. Each call carves
// the step's workspace from sc in one fixed order, so passing the same
// arena across calls makes the step allocation-free apart from the
// Result (the Result header, its slab's two backing arrays, and whatever
// a model or sensor without an Into fast path allocates), and results
// stay valid after the arena is reused. A nil arena allocates a private
// one, which is equivalent to the plain NUISE call.
//
// The workspace changes where intermediates live but not how they are
// computed: every destination-variant op accumulates in the same element
// order as its allocating counterpart (see internal/mat), so results are
// bit-for-bit identical to the historical allocating implementation.
func NUISEScratch(plant Plant, reference, testing sensors.Sensor, u, xPrev mat.Vec, pxPrev *mat.Mat, z1, z2 mat.Vec, sc *mat.Scratch) (*Result, error) {
	if sc == nil {
		sc = mat.NewScratch()
	}
	if testing != nil && testing.Dim() == 0 {
		testing = nil
	}
	shape := newResultShape(plant.Model, reference, testing)
	res := new(Result)
	shape.carve(mat.NewSlab(shape.floats(), resultMats), res)
	var w nuiseWork
	sc.Reset()
	w.carve(sc, shape)
	if err := nuiseStep(plant, reference, testing, u, xPrev, pxPrev, z1, z2, &w, res); err != nil {
		return nil, err
	}
	return res, nil
}

// resultShape is the dimensions of one mode's Result: n states, q
// controls, p2 reference rows, p1 testing rows (0: no testing block).
type resultShape struct{ n, q, p2, p1 int }

// resultMats is the matrix headers one Result holds (Px, Pa, Ps).
const resultMats = 3

func newResultShape(model dynamics.Model, reference, testing sensors.Sensor) resultShape {
	sh := resultShape{n: model.StateDim(), q: model.ControlDim(), p2: reference.Dim()}
	if testing != nil {
		sh.p1 = testing.Dim()
	}
	return sh
}

// floats returns the floats a Result of this shape holds.
func (sh resultShape) floats() int {
	return sh.n + sh.n*sh.n + sh.q + sh.q*sh.q + sh.p2 + sh.p1 + sh.p1*sh.p1
}

// carve points res's vectors and matrices at fresh slab memory of this
// shape — the destinations nuiseStep fills. A mode without a testing
// block gets a nil Ds and a 0×0 Ps.
func (sh resultShape) carve(slab *mat.Slab, res *Result) {
	*res = Result{
		X:          slab.Vec(sh.n),
		Px:         slab.Mat(sh.n, sh.n),
		Da:         slab.Vec(sh.q),
		Pa:         slab.Mat(sh.q, sh.q),
		Innovation: slab.Vec(sh.p2),
		Ps:         slab.Mat(sh.p1, sh.p1),
	}
	if sh.p1 > 0 {
		res.Ds = slab.Vec(sh.p1)
	}
}

// dropTesting turns a carved Result into that of a reference-only step:
// no d̂s and a 0×0 Ps, which is what a mode without a testing block
// reports. (The carved p1×p1 floats stay unused in the slab.)
func (res *Result) dropTesting() {
	res.Ds = nil
	res.Ps = noTestingPs
}

// noTestingPs is the 0×0 covariance of a reference-only step. It has no
// entries, so sharing one between every such Result is unobservable.
var noTestingPs = mat.New(0, 0)

// nuiseWork is every temporary of one NUISE step of one mode shape:
// both daValid branches, both likelihood paths and the testing block
// each have their buffers, so a step makes no arena request. Each is the
// destination of an …Into kernel that overwrites all of it before
// anything reads it, except m2 in the daValid == false degrade, which
// the step zeroes. nn, nn2, pn, np, qp and pp are product temporaries
// (n states, q controls, p2 reference rows) that the next kernel
// consumes.
type nuiseWork struct {
	a, g, c2, pTilde, rStar, rStarChol, c2g, rsInvC2g, fisher   *mat.Mat
	rsInvC2gT, fisherChol, m2, paAcc                            *mat.Mat
	gm2, igm, aBar, qBar, gm2r2, pxPred                         *mat.Mat
	s, r2Tilde, c2s, gainNumer, l, r2TildeChol, lt, ilc, pxAcc  *mat.Mat
	z, zWork, basis, pr, prWork, basisT, ru, ruChol, nr, ruInvU *mat.Mat
	c1, psAcc, p1n, nn, nn2, pn, np, qp, pp                     *mat.Mat
	xPred0, h2, uComp, hx, quadP2, uNu, quadR, lnu, h1          mat.Vec
	// fallbacks counts the steps on this workspace that took the Jacobi
	// fallback since the engine last summed and cleared it (commit).
	fallbacks int64
}

// carve points w's buffers at arena memory for a step of shape sh,
// requesting them from sc in one fixed order, so an arena carved from
// before hands back the same buffers.
func (w *nuiseWork) carve(sc *mat.Scratch, sh resultShape) {
	n, q, p2, p1 := sh.n, sh.q, sh.p2, sh.p1
	r := max(p2-q, 0) // the deflated likelihood's rank
	*w = nuiseWork{
		a: sc.Mat(n, n), g: sc.Mat(n, q), c2: sc.Mat(p2, n),
		pTilde: sc.Mat(n, n), rStar: sc.Mat(p2, p2), rStarChol: sc.Mat(p2, p2),
		c2g: sc.Mat(p2, q), rsInvC2g: sc.Mat(p2, q), fisher: sc.Mat(q, q),
		rsInvC2gT: sc.Mat(q, p2), fisherChol: sc.Mat(q, q), m2: sc.Mat(q, p2), paAcc: sc.Mat(q, q),
		gm2: sc.Mat(n, p2), igm: sc.Mat(n, n), aBar: sc.Mat(n, n), qBar: sc.Mat(n, n),
		gm2r2: sc.Mat(n, p2), pxPred: sc.Mat(n, n),
		s: sc.Mat(n, p2), r2Tilde: sc.Mat(p2, p2), c2s: sc.Mat(p2, p2), gainNumer: sc.Mat(n, p2),
		l: sc.Mat(n, p2), r2TildeChol: sc.Mat(p2, p2), lt: sc.Mat(p2, n),
		ilc: sc.Mat(n, n), pxAcc: sc.Mat(n, n),
		z: sc.Mat(p2, r), zWork: sc.Mat(p2, q), basis: sc.Mat(p2, r), pr: sc.Mat(p2, r),
		prWork: sc.Mat(p2, r), basisT: sc.Mat(r, p2), ru: sc.Mat(r, r), ruChol: sc.Mat(r, r),
		nr: sc.Mat(n, r), ruInvU: sc.Mat(r, p2),
		c1: sc.Mat(p1, n), psAcc: sc.Mat(p1, p1), p1n: sc.Mat(p1, n),
		nn: sc.Mat(n, n), nn2: sc.Mat(n, n), pn: sc.Mat(p2, n), np: sc.Mat(n, p2),
		qp: sc.Mat(q, p2), pp: sc.Mat(p2, p2),
		xPred0: sc.Vec(n), h2: sc.Vec(p2), uComp: sc.Vec(q), hx: sc.Vec(p2), quadP2: sc.Vec(p2),
		uNu: sc.Vec(r), quadR: sc.Vec(r), lnu: sc.Vec(n), h1: sc.Vec(p1),
	}
}

// nuiseStep is the one implementation of Algorithm 2. res arrives with
// its vectors and matrices carved to the mode's shape (resultShape.carve,
// then dropTesting when testing is nil) and leaves filled in; on error
// its contents are unspecified. Every temporary is one of w's buffers,
// carved for the same shape.
func nuiseStep(plant Plant, reference, testing sensors.Sensor, u, xPrev mat.Vec, pxPrev *mat.Mat, z1, z2 mat.Vec, w *nuiseWork, res *Result) error {
	model := plant.Model
	q := model.ControlDim()

	// Linearize the kinematics at the previous estimate; the uncompensated
	// prediction is the measurement linearization point, where h2 and C2
	// come from one evaluation.
	a, g, xPred0 := w.a, w.g, w.xPred0
	dynamics.EvalFAGInto(model, xPred0, a, g, xPrev, u)
	plant.wrapState(xPred0)
	p2 := reference.Dim()
	h2, c2 := w.h2, w.c2
	sensors.EvalHCInto(reference, h2, c2, 0, xPred0)
	r2 := reference.R()

	// --- Step 1: actuator anomaly estimation (lines 2–6) ---
	// pTilde = A·Px·Aᵀ + Q
	pTilde := mat.MulTInto(w.pTilde, mat.MulInto(w.nn, a, pxPrev), a)
	mat.AddInto(pTilde, pTilde, plant.Q)
	// rStar = C2·pTilde·C2ᵀ + R2
	rStar := mat.MulTInto(w.rStar, mat.MulInto(w.pn, c2, pTilde), c2)
	mat.SymmetrizeInto(rStar, mat.AddInto(rStar, rStar, r2))
	c2g := mat.MulInto(w.c2g, c2, g)
	// R* = C2·P̃·C2ᵀ + R2 is SPD whenever the reference noise is, so the
	// fast path factors it once and solves; never forms R*⁻¹. A
	// factorization failure (degenerate reference) falls back to an LU
	// solve with the historical error semantics.
	var rsInvC2g *mat.Mat // R*⁻¹·C2·G, shared by the Fisher matrix and M2
	rStarChol := w.rStarChol
	if mat.CholFactorInto(rStarChol, rStar) {
		rsInvC2g = mat.CholSolveMatInto(w.rsInvC2g, rStarChol, c2g)
	} else {
		solved, err := rStar.SolveMat(c2g)
		if err != nil {
			return fmt.Errorf("%w: R* inversion: %v", ErrIllConditioned, err)
		}
		rsInvC2g = solved
	}
	// fisher = Gᵀ·C2ᵀ·R*⁻¹·C2·G
	fisher := mat.TMulInto(w.fisher, c2g, rsInvC2g)
	daValid := fisherConditioned(fisher)
	var m2 *mat.Mat
	da, pa := res.Da, res.Pa
	if daValid {
		// m2 = fisher⁻¹·Gᵀ·C2ᵀ·R*⁻¹ = fisher⁻¹·(R*⁻¹·C2·G)ᵀ (q×p2)
		rsInvC2gT := mat.TInto(w.rsInvC2gT, rsInvC2g)
		fisherChol := w.fisherChol
		if mat.CholFactorInto(fisherChol, fisher) {
			m2 = mat.CholSolveMatInto(w.m2, fisherChol, rsInvC2gT)
		} else if solved, err := fisher.SolveMat(rsInvC2gT); err == nil {
			m2 = solved
		} else {
			daValid = false
		}
	}
	if daValid {
		innov0 := sensors.WrapResidual(mat.SubVecInto(h2, z2, h2), reference.AngleIndices())
		mat.MulVecInto(da, m2, innov0)
		paAcc := mat.MulTInto(w.paAcc, mat.MulInto(w.qp, m2, rStar), m2)
		mat.SymmetrizeInto(pa, paAcc)
	} else {
		// rank(C2·G) < dim(u): the actuator anomaly is unobservable from
		// this reference (e.g. steering at standstill). Degrade to a
		// standard EKF step: no compensation, d̂a pinned at zero with an
		// uninformative covariance. M2 = 0 is an operand of what follows,
		// never a kernel's destination, so this is the one workspace
		// buffer that has to be zeroed by hand.
		m2 = w.m2.Zero()
		clear(da)
		pa.Zero()
		for i := 0; i < q; i++ {
			pa.Set(i, i, 1e6)
		}
	}

	// --- Step 2: compensated state prediction (lines 7–10) ---
	uComp := mat.AddVecInto(w.uComp, u, da)
	implausible := false
	if daValid {
		for i, bound := range plant.UMax {
			if bound > 0 && i < uComp.Len() && math.Abs(uComp[i]) > bound {
				implausible = true
			}
		}
	}
	xPred := plant.wrapState(dynamics.EvalFInto(model, res.X, xPrev, uComp))
	gm2 := mat.MulInto(w.gm2, g, m2)
	// igm = I − G·M2·C2
	igm := mat.IdentityInto(w.igm)
	mat.SubInto(igm, igm, mat.MulInto(w.nn, gm2, c2))
	aBar := mat.MulInto(w.aBar, igm, a)
	// qBar = igm·Q·igmᵀ + G·M2·R2·(G·M2)ᵀ
	qBar := mat.MulTInto(w.qBar, mat.MulInto(w.nn, igm, plant.Q), igm)
	gm2r2 := mat.MulInto(w.gm2r2, gm2, r2)
	mat.AddInto(qBar, qBar, mat.MulTInto(w.nn, gm2r2, gm2))
	pxPred := mat.MulTInto(w.pxPred, mat.MulInto(w.nn, aBar, pxPrev), aBar)
	mat.SymmetrizeInto(pxPred, mat.AddInto(pxPred, pxPred, qBar))

	// --- Step 3: state estimation (lines 11–14) ---
	// Cross covariance S = E[x̃_{k|k-1}·ξ2ᵀ] = −G·M2·R2.
	s := mat.ScaleInto(w.s, -1, gm2r2)
	// r2Tilde = C2·pxPred·C2ᵀ + R2 + C2·S + Sᵀ·C2ᵀ
	r2Tilde := mat.MulTInto(w.r2Tilde, mat.MulInto(w.pn, c2, pxPred), c2)
	mat.AddInto(r2Tilde, r2Tilde, r2)
	c2s := mat.MulInto(w.c2s, c2, s)
	mat.AddInto(r2Tilde, r2Tilde, c2s)
	mat.AddInto(r2Tilde, r2Tilde, mat.TInto(w.pp, c2s))
	mat.SymmetrizeInto(r2Tilde, r2Tilde)
	nu := sensors.WrapResidual(
		mat.SubVecInto(res.Innovation, z2, sensors.EvalHInto(reference, w.hx, xPred)),
		reference.AngleIndices())

	gainNumer := mat.MulTInto(w.gainNumer, pxPred, c2)
	mat.AddInto(gainNumer, gainNumer, s)
	// SPD fast path: factor the innovation covariance once; the factor's
	// diagonal yields the (pseudo-)log-determinant and its solves yield
	// both the gain L and the likelihood exponent — no explicit inverse,
	// no eigendecomposition. Which factorization applies depends on the
	// step's own structure:
	//
	//   - daValid=false: no actuator degrees of freedom were consumed, so
	//     R̃2 = C2·P̃·C2ᵀ + R2 is SPD outright and factors directly.
	//   - daValid=true: R̃2 is *structurally* rank p2−q. The deflation
	//     identity R̃2 = R* − C2·G·F⁻¹·(C2·G)ᵀ (F the Fisher matrix of
	//     step 1) gives R̃2·(R*)⁻¹·C2·G = 0, so null(R̃2) is the known
	//     q-dimensional space (R*)⁻¹·range(C2·G) — exactly why Algorithm 2
	//     line 20 is stated with pseudo-inverse and pseudo-determinant.
	//     Instead of discovering the null space eigenvalue by eigenvalue
	//     (the historical cyclic-Jacobi PseudoInverseSym), we deflate:
	//     with Z an orthonormal complement of range(C2·G), the range of
	//     R̃2 is R*·range(Z); orthonormalizing U = orth(R*·Z) and
	//     Cholesky-factoring the SPD core Uᵀ·R̃2·U yields the exact
	//     Moore–Penrose quantities R̃2† = U·(Uᵀ·R̃2·U)⁻¹·Uᵀ and
	//     pdet(R̃2) = det(Uᵀ·R̃2·U). (Using Z directly would preserve the
	//     quad form but bias the pseudo-determinant by the principal
	//     angles between range(Z) and range(R̃2) — see RangeBasisInto.)
	//
	// Any factorization failure (rank deficiency beyond the structural
	// one — e.g. a noise-free reference row duplicating another) falls
	// back to the Jacobi path, unchanged from the historical
	// implementation, so detection semantics on singular inputs hold.
	var l *mat.Mat
	var likelihood, pValue float64
	solved := false
	if !forceJacobiLikelihood {
		if !daValid {
			r2TildeChol := w.r2TildeChol
			if mat.CholFactorInto(r2TildeChol, r2Tilde) {
				// l = gainNumer·R̃2⁻¹ = (R̃2⁻¹·gainNumerᵀ)ᵀ
				lt := mat.CholSolveMatInto(w.lt, r2TildeChol, mat.TInto(w.pn, gainNumer))
				l = mat.TInto(w.l, lt)
				quad := mat.CholInvQuadForm(r2TildeChol, nu, w.quadP2)
				likelihood, pValue = likelihoodFromLog(quad, p2, mat.CholLogDet(r2TildeChol))
				solved = true
			}
		} else if r := p2 - q; r > 0 {
			z, basis := w.z, w.basis
			if mat.RangeComplementInto(z, c2g, w.zWork) &&
				mat.RangeBasisInto(basis, mat.MulInto(w.pr, rStar, z), w.prWork) {
				basisT := mat.TInto(w.basisT, basis)
				ru := mat.MulInto(w.ru, basisT, mat.MulInto(w.pr, r2Tilde, basis))
				mat.SymmetrizeInto(ru, ru)
				ruChol := w.ruChol
				if mat.CholFactorInto(ruChol, ru) {
					// l = gainNumer·R̃2† = (gainNumer·U)·Ru⁻¹·Uᵀ
					gu := mat.MulInto(w.nr, gainNumer, basis)
					l = mat.MulInto(w.l, gu, mat.CholSolveMatInto(w.ruInvU, ruChol, basisT))
					uNu := mat.MulVecInto(w.uNu, basisT, nu)
					quad := mat.CholInvQuadForm(ruChol, uNu, w.quadR)
					likelihood, pValue = likelihoodFromLog(quad, r, mat.CholLogDet(ruChol))
					solved = true
				}
			}
		}
	}
	if !solved {
		atomic.AddInt64(&nuiseJacobiFallbacks, 1)
		w.fallbacks++
		r2TildeInv, rank, pseudoDet, err := r2Tilde.PseudoInverseSym(0)
		if err != nil {
			return fmt.Errorf("%w: innovation covariance: %v", ErrIllConditioned, err)
		}
		l = mat.MulInto(w.l, gainNumer, r2TildeInv)
		likelihood, pValue = likelihoodOf(nu, r2TildeInv, rank, pseudoDet)
	}

	// xPred already lives in res.X, so the update lands in place and the
	// sum is the Result's state.
	x := plant.wrapState(mat.AddVecInto(xPred, xPred, mat.MulVecInto(w.lnu, l, nu)))
	// ilc = I − L·C2
	ilc := mat.IdentityInto(w.ilc)
	mat.SubInto(ilc, ilc, mat.MulInto(w.nn, l, c2))
	// Joseph form: px = ilc·pxPred·ilcᵀ + L·R2·Lᵀ − ilc·S·Lᵀ − L·Sᵀ·ilcᵀ
	pxAcc := mat.MulTInto(w.pxAcc, mat.MulInto(w.nn, ilc, pxPred), ilc)
	mat.AddInto(pxAcc, pxAcc, mat.MulTInto(w.nn, mat.MulInto(w.np, l, r2), l))
	mat.SubInto(pxAcc, pxAcc, mat.MulTInto(w.nn, mat.MulInto(w.np, ilc, s), l))
	mat.SubInto(pxAcc, pxAcc, mat.MulTInto(w.nn, mat.MulTInto(w.nn2, l, s), ilc))
	// The Result owns its matrices (the workspace is reused next
	// iteration), so the symmetrized covariances land in its carved
	// storage.
	px := mat.SymmetrizeInto(res.Px, pxAcc)

	// --- Step 4: testing-sensor anomaly estimation (lines 15–16) ---
	if testing != nil {
		h1, c1 := w.h1, w.c1
		sensors.EvalHCInto(testing, h1, c1, 0, x)
		sensors.WrapResidual(mat.SubVecInto(res.Ds, z1, h1), testing.AngleIndices())
		psAcc := mat.MulTInto(w.psAcc, mat.MulInto(w.p1n, c1, px), c1)
		mat.AddInto(psAcc, psAcc, testing.R())
		mat.SymmetrizeInto(res.Ps, psAcc)
	}

	res.Likelihood, res.PValue = likelihood, pValue
	res.Implausible, res.DaValid = implausible, daValid
	if x.HasNaN() || px.HasNaN() || da.HasNaN() || (res.Ds != nil && res.Ds.HasNaN()) {
		return ErrDiverged
	}
	return nil
}

// fisherConditioned reports whether the q×q information matrix
// Gᵀ·C2ᵀ·R*⁻¹·C2·G is invertible with a usable condition number. The
// control dimension is 1 or 2 for every model in this repo, where the
// symmetric eigenvalues have a closed form; larger q falls back to the
// Jacobi eigendecomposition.
func fisherConditioned(fisher *mat.Mat) bool {
	var minEig, maxEig float64
	switch fisher.Rows() {
	case 1:
		minEig = math.Abs(fisher.At(0, 0))
		maxEig = minEig
	case 2:
		// Eigenvalues of [[a,b],[b,c]]: (a+c)/2 ± √(((a−c)/2)² + b²).
		a, b, c := fisher.At(0, 0), fisher.At(0, 1), fisher.At(1, 1)
		mean, root := (a+c)/2, math.Hypot((a-c)/2, b)
		minEig = math.Abs(mean - root)
		maxEig = math.Abs(mean + root)
		if minEig > maxEig {
			minEig, maxEig = maxEig, minEig
		}
	default:
		eig, _, err := fisher.EigenSym()
		if err != nil {
			return false
		}
		minEig = math.Inf(1)
		for _, lambda := range eig {
			l := math.Abs(lambda)
			if l < minEig {
				minEig = l
			}
			if l > maxEig {
				maxEig = l
			}
		}
	}
	if math.IsNaN(minEig) || math.IsNaN(maxEig) {
		return false
	}
	return maxEig > 0 && minEig > 1e-10*maxEig
}

// forceJacobiLikelihood is a test hook: when set, NUISE skips the
// Cholesky fast path for the innovation covariance and always runs the
// PseudoInverseSym fallback. The agreement property tests flip it to
// prove the two paths compute the same estimates and likelihood ratios.
var forceJacobiLikelihood bool

// nuiseJacobiFallbacks counts, race-safely, how many NUISE steps took
// the PseudoInverseSym fallback (including forced ones). Tests read it
// to prove the fallback engages on inputs rank-deficient beyond the
// structural p2−q deficiency; it is never read on the hot path.
var nuiseJacobiFallbacks int64

// JacobiFallbacks returns the process-wide count of NUISE steps that
// abandoned the Cholesky fast path for the Jacobi PseudoInverseSym
// fallback since process start. Silent fallback engagement is a
// performance regression (the Jacobi path is ~2× slower per step); an
// engine counts its own modes' fallbacks in StepStats.JacobiFallbacks,
// and a clean run must report zero.
func JacobiFallbacks() int64 { return atomic.LoadInt64(&nuiseJacobiFallbacks) }

// likelihoodOf evaluates the Gaussian likelihood of Algorithm 2 line 20
// with pseudo-inverse and pseudo-determinant,
//
//	N_k = exp(−νᵀ·(P_{k|k-1})†·ν / 2) / ((2π)^{n/2}·|P_{k|k-1}|₊^{1/2})
//
// together with the chi-square p-value of the same normalized
// innovation. It is the rank-deficient fallback of the NUISE step; the
// full-rank path computes the same quantities from the Cholesky factor.
func likelihoodOf(nu mat.Vec, pinv *mat.Mat, rank int, pseudoDet float64) (density, pValue float64) {
	if rank == 0 {
		return 0, 0
	}
	if pseudoDet < 0 {
		// The pseudo-determinant is a product of eigenvalues kept by the
		// PSD projection; a negative value means that projection failed
		// and neither the density nor the normalized innovation behind
		// the p-value can be trusted. Report zero so the engine floors
		// the mode instead of weighting it by a silently wrong density.
		return 0, 0
	}
	return likelihoodFromLog(pinv.QuadForm(nu), rank, math.Log(pseudoDet))
}

// log2Pi is log(2π), with the bits of math.Log(2*math.Pi).
const log2Pi = 1.8378770664093453

// likelihoodFromLog evaluates the Gaussian density and chi-square
// p-value from the Mahalanobis statistic, its rank, and the
// (pseudo-)log-determinant of the innovation covariance. The
// normalization is assembled entirely in log space and only the final
// density is exponentiated: the historical form
// (2π)^{rank/2}·√det over/underflowed for large rank or extreme
// determinants, silently zeroing (or NaN-ing) likelihoods that are
// perfectly representable.
func likelihoodFromLog(quad float64, rank int, logDet float64) (density, pValue float64) {
	if quad < 0 {
		quad = 0 // guard tiny negative round-off
	}
	if cdf, err := stat.ChiSquareCDF(quad, rank); err == nil {
		pValue = 1 - cdf
	}
	logDensity := -quad/2 - float64(rank)/2*log2Pi - logDet/2
	if math.IsNaN(logDensity) || math.IsInf(logDensity, 1) {
		// +Inf can only come from a zero (pseudo-)determinant: a
		// singular covariance has no density; keep the p-value.
		return 0, pValue
	}
	return math.Exp(logDensity), pValue
}
