package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"roboads/internal/dynamics"
	"roboads/internal/mat"
	"roboads/internal/sensors"
)

// ErrBatchShape indicates an engine handed to EngineBatch.Step whose
// mode-bank shapes do not match the batch prototype's. The session is
// not stepped; the caller routes it to the scalar path.
var ErrBatchShape = errors.New("core: engine shape incompatible with batch")

// EngineBatch steps K engines sharing one mode-bank geometry as blocked
// structure-of-arrays passes: every NUISE stage (predict, Cholesky
// factor-and-solve, innovation update) runs as one sweep over all K
// sessions per mode through the internal/mat batch kernels, instead of
// K independent engine steps each paying its own small-matrix dispatch,
// scratch management, and allocator traffic.
//
// Per-session outputs are bit-for-bit identical to Engine.Step:
//
//   - every batched kernel applies the scalar kernel block-by-block
//     (same loop structure, same summation order — see internal/mat),
//     and the stage sequence mirrors NUISEScratch operation for
//     operation, so each session's algebra is the scalar algebra;
//   - any (session, mode) the blocked happy path cannot carry — a
//     Cholesky or range-basis failure, an ill-conditioned Fisher matrix
//     (the EKF degrade), the forced-Jacobi test hook — is redone from
//     scratch through the engine's own scalar stepMode, which recomputes
//     the identical pure function of the identical inputs (batch staging
//     only copies; engine state commits strictly afterwards);
//   - the serial tail of the step (weight update, selection, resync,
//     output assembly) is Engine.commit, the very code the scalar path
//     runs.
//
// Result-escaping values (X, Px, Da, Pa, Ds, Ps, Innovation) are carved
// from a fresh per-session mat.Slab each step — callers may retain
// outputs indefinitely, exactly as with the scalar path.
//
// An EngineBatch is a workspace, not an owner: engines are passed per
// Step call and may differ call to call as long as their shapes match
// the prototype. The caller must guarantee the engines are not stepped
// concurrently elsewhere; the workspace itself must not be shared
// between concurrent Step calls.
type EngineBatch struct {
	capacity int
	nModes   int
	n, q     int
	banks    []*modeBank

	// Per-session linearization memo: modes re-synchronized to the
	// consensus share bit-identical x̂ₘ, so A, G, and the uncompensated
	// prediction F(x̂, u) — pure functions of (x̂, u) — are computed once
	// per distinct x̂ per session and reused across that session's modes,
	// into buffers the workspace owns (filled through the model's Into
	// fast paths; none of them escape into Results).
	memoValid []bool
	memoX     []mat.Vec
	memoA     []*mat.Mat
	memoG     []*mat.Mat
	memoXP    []mat.Vec

	// Slab-carved result matrices for the current mode pass. Result
	// must carry these headers — not Batch.Block pointers, whose slots
	// are rebound on the next pass — so retained outputs stay immutable.
	paM, pxM, psM []*mat.Mat

	// Per-call scratch reused across Steps: session masks, per-session
	// instrumentation preamble. (Everything that escapes into Outputs —
	// perMode, the Result array, the returned slices — is still allocated
	// fresh each call.)
	alive, live, redo       []bool
	hasTesting, implausible []bool
	okMask                  []bool
	stepStart               []time.Time
	fallbacks0              []int64

	// Per-session slab sizing carried across steps so the second step
	// onward carves without growing.
	slabFloats, slabMats int
}

// modeBank holds the blocked buffers for one mode's NUISE pass. Shapes:
// n states, q controls, p2 reference rows, p1 testing rows, r = p2−q
// deflated likelihood rows.
type modeBank struct {
	p2, p1, r int

	// Bound views of per-session inputs and constants. The Jacobian
	// banks c2 and c1 are contiguous (not views): they are filled
	// through the sensors' CInto fast paths, which for state-dependent
	// Jacobians (LiDAR) skips a per-session allocation per mode pass.
	xPred0, xPred, u           *mat.VecBatch
	pxPrev, a, g, qc, r2       *mat.Batch
	c2, c1, r1                 *mat.Batch
	hRef, hTest                *mat.VecBatch
	da, nu, ds                 *mat.VecBatch
	pa, px, ps                 *mat.Batch
	z2, z1, innov0             *mat.VecBatch
	uComp, lnu, uNu, quadWork  *mat.VecBatch
	pTilde, tmpNN, tmpNN2, igm *mat.Batch
	aBar, qBar, pxPred, ilc    *mat.Batch
	pxAcc, gm2, gm2r2, s       *mat.Batch
	tmpNP2, gainNumer, l       *mat.Batch
	rStar, rStarChol, r2Tilde  *mat.Batch
	c2s, tmpP2P2, tmpP2N       *mat.Batch
	c2g, rsInvC2g, rsInvC2gT   *mat.Batch
	fisher, fisherChol, m2     *mat.Batch
	paAcc, tmpQP2              *mat.Batch
	zc, rcWork, rsZ, basis     *mat.Batch
	rbWork, basisT, ru, tmpP2R *mat.Batch
	ruChol, w, sol, psAcc      *mat.Batch
	tmpP1N                     *mat.Batch
}

// NewEngineBatch returns a batch workspace shaped after proto with room
// for up to capacity sessions per Step call.
func NewEngineBatch(proto *Engine, capacity int) (*EngineBatch, error) {
	if proto == nil || capacity < 1 {
		return nil, fmt.Errorf("core: batch needs a prototype engine and capacity ≥ 1 (got %d)", capacity)
	}
	n := proto.plant.Model.StateDim()
	q := proto.plant.Model.ControlDim()
	b := &EngineBatch{
		capacity:  capacity,
		nModes:    len(proto.modes),
		n:         n,
		q:         q,
		banks:     make([]*modeBank, len(proto.modes)),
		memoValid: make([]bool, capacity),
		memoX:     make([]mat.Vec, capacity),
		memoA:     make([]*mat.Mat, capacity),
		memoG:     make([]*mat.Mat, capacity),
		memoXP:    make([]mat.Vec, capacity),
		paM:       make([]*mat.Mat, capacity),
		pxM:       make([]*mat.Mat, capacity),
		psM:       make([]*mat.Mat, capacity),

		alive:       make([]bool, capacity),
		live:        make([]bool, capacity),
		redo:        make([]bool, capacity),
		hasTesting:  make([]bool, capacity),
		implausible: make([]bool, capacity),
		okMask:      make([]bool, capacity),
		stepStart:   make([]time.Time, capacity),
		fallbacks0:  make([]int64, capacity),
	}
	for s := 0; s < capacity; s++ {
		b.memoA[s] = mat.New(n, n)
		b.memoG[s] = mat.New(n, q)
		b.memoXP[s] = make(mat.Vec, n)
	}
	for i, m := range proto.modes {
		p2 := m.Reference.Dim()
		p1 := 0
		if ts := m.TestingStacked(); ts != nil {
			p1 = ts.Dim()
		}
		r := p2 - q
		if r <= 0 {
			// No deflated likelihood rows: the scalar path itself takes
			// the Jacobi fallback here, so the mode is never batchable.
			b.banks[i] = &modeBank{p2: p2, p1: p1, r: r}
			continue
		}
		k := capacity
		b.banks[i] = &modeBank{
			p2: p2, p1: p1, r: r,
			xPred0:     mat.NewViewVecBatch(k, n),
			xPred:      mat.NewViewVecBatch(k, n),
			u:          mat.NewViewVecBatch(k, q),
			pxPrev:     mat.NewViewBatch(k, n, n),
			a:          mat.NewViewBatch(k, n, n),
			g:          mat.NewViewBatch(k, n, q),
			c2:         mat.NewBatch(k, p2, n),
			qc:         mat.NewViewBatch(k, n, n),
			r2:         mat.NewViewBatch(k, p2, p2),
			c1:         mat.NewBatch(k, p1, n),
			r1:         mat.NewViewBatch(k, p1, p1),
			hRef:       mat.NewVecBatch(k, p2),
			hTest:      mat.NewVecBatch(k, p1),
			da:         mat.NewViewVecBatch(k, q),
			nu:         mat.NewViewVecBatch(k, p2),
			ds:         mat.NewViewVecBatch(k, p1),
			pa:         mat.NewViewBatch(k, q, q),
			px:         mat.NewViewBatch(k, n, n),
			ps:         mat.NewViewBatch(k, p1, p1),
			z2:         mat.NewVecBatch(k, p2),
			z1:         mat.NewVecBatch(k, p1),
			innov0:     mat.NewVecBatch(k, p2),
			uComp:      mat.NewVecBatch(k, q),
			lnu:        mat.NewVecBatch(k, n),
			uNu:        mat.NewVecBatch(k, r),
			quadWork:   mat.NewVecBatch(k, r),
			pTilde:     mat.NewBatch(k, n, n),
			tmpNN:      mat.NewBatch(k, n, n),
			tmpNN2:     mat.NewBatch(k, n, n),
			igm:        mat.NewBatch(k, n, n),
			aBar:       mat.NewBatch(k, n, n),
			qBar:       mat.NewBatch(k, n, n),
			pxPred:     mat.NewBatch(k, n, n),
			ilc:        mat.NewBatch(k, n, n),
			pxAcc:      mat.NewBatch(k, n, n),
			gm2:        mat.NewBatch(k, n, p2),
			gm2r2:      mat.NewBatch(k, n, p2),
			s:          mat.NewBatch(k, n, p2),
			tmpNP2:     mat.NewBatch(k, n, p2),
			gainNumer:  mat.NewBatch(k, n, p2),
			l:          mat.NewBatch(k, n, p2),
			rStar:      mat.NewBatch(k, p2, p2),
			rStarChol:  mat.NewBatch(k, p2, p2),
			r2Tilde:    mat.NewBatch(k, p2, p2),
			c2s:        mat.NewBatch(k, p2, p2),
			tmpP2P2:    mat.NewBatch(k, p2, p2),
			tmpP2N:     mat.NewBatch(k, p2, n),
			c2g:        mat.NewBatch(k, p2, q),
			rsInvC2g:   mat.NewBatch(k, p2, q),
			rsInvC2gT:  mat.NewBatch(k, q, p2),
			fisher:     mat.NewBatch(k, q, q),
			fisherChol: mat.NewBatch(k, q, q),
			m2:         mat.NewBatch(k, q, p2),
			paAcc:      mat.NewBatch(k, q, q),
			tmpQP2:     mat.NewBatch(k, q, p2),
			zc:         mat.NewBatch(k, p2, r),
			rcWork:     mat.NewBatch(k, p2, q),
			rsZ:        mat.NewBatch(k, p2, r),
			basis:      mat.NewBatch(k, p2, r),
			rbWork:     mat.NewBatch(k, p2, r),
			basisT:     mat.NewBatch(k, r, p2),
			ru:         mat.NewBatch(k, r, r),
			tmpP2R:     mat.NewBatch(k, p2, r),
			ruChol:     mat.NewBatch(k, r, r),
			w:          mat.NewBatch(k, n, r),
			sol:        mat.NewBatch(k, r, p2),
			psAcc:      mat.NewBatch(k, p1, p1),
			tmpP1N:     mat.NewBatch(k, p1, n),
		}
	}
	return b, nil
}

// Capacity returns the maximum number of sessions per Step call.
func (b *EngineBatch) Capacity() int { return b.capacity }

// congruent reports whether e matches the batch's prototype geometry.
// The caller (the fleet scheduler) gates true profile identity by
// configuration fingerprint; this check only guards the buffer shapes.
func (b *EngineBatch) congruent(e *Engine) bool {
	if len(e.modes) != b.nModes ||
		e.plant.Model.StateDim() != b.n || e.plant.Model.ControlDim() != b.q {
		return false
	}
	for i, m := range e.modes {
		bank := b.banks[i]
		if m.Reference.Dim() != bank.p2 {
			return false
		}
		p1 := 0
		if ts := m.TestingStacked(); ts != nil {
			p1 = ts.Dim()
		}
		if p1 != bank.p1 {
			return false
		}
	}
	return true
}

// Step runs one control iteration for every engine, batched. The slices
// must be equal length and no longer than the batch capacity; entry k
// of the returned slices is exactly what engines[k].Step(us[k],
// readings[k]) would have returned. Engines whose shapes do not match
// the prototype get ErrBatchShape and are left unstepped.
func (b *EngineBatch) Step(engines []*Engine, us []mat.Vec, readings []map[string]mat.Vec) ([]*Output, []error) {
	k := len(engines)
	if k > b.capacity || len(us) != k || len(readings) != k {
		panic(fmt.Errorf("core: batch step with %d engines, %d commands, %d readings (capacity %d)",
			k, len(us), len(readings), b.capacity))
	}
	outs := make([]*Output, k)
	errs := make([]error, k)

	perMode := make([][]*Result, k)
	resArr := make([][]Result, k)
	// One escape-safe slab per Step: every Result-escaping value of every
	// session is carved from it, and the backing is never reused — the
	// next Step carves from a fresh one.
	slab := mat.NewSlab(b.slabFloats, b.slabMats)
	// The capacity-sized masks are workspace scratch: the batched kernels
	// sweep every block through them, so entries beyond k must read
	// false. (perMode, resArr, outs, errs escape into Outputs and stay
	// per-call.)
	stepStart, fallbacks0, alive := b.stepStart, b.fallbacks0, b.alive
	clear(alive)
	clear(b.live)
	clear(b.redo)
	clear(b.hasTesting)
	clear(b.implausible)
	clear(b.okMask)

	for s := 0; s < k; s++ {
		b.memoValid[s] = false
		e := engines[s]
		if e == nil || !b.congruent(e) {
			errs[s] = ErrBatchShape
			continue
		}
		// A malformed frame is refused exactly as Engine.Step refuses it.
		if errs[s] = e.gather(us[s], readings[s]); errs[s] != nil {
			continue
		}
		alive[s] = true
		perMode[s] = make([]*Result, b.nModes)
		resArr[s] = make([]Result, b.nModes)
		// Instrumentation preamble, mirroring StepContext. The step wall
		// time an observer sees covers the whole batched pass — the cost
		// attribution is shared by construction (documented in DESIGN §13).
		if e.obs != nil {
			stepStart[s] = time.Now()
			fallbacks0[s] = JacobiFallbacks()
			for _, name := range e.sensorNames {
				if _, ok := readings[s][name]; !ok {
					e.obs.DroppedReading(name)
				}
			}
		}
	}

	for i := 0; i < b.nModes; i++ {
		b.stepModeBatch(i, engines, us, readings, perMode, resArr, slab,
			alive, b.live, b.redo, b.hasTesting, b.implausible, b.okMask)
	}

	for s := 0; s < k; s++ {
		if alive[s] {
			outs[s], errs[s] = engines[s].commit(new(Output), perMode[s], slab, stepStart[s], fallbacks0[s])
		}
	}
	// commit carves too (weights, the anomaly split), so the next slab is
	// sized from what the whole Step used.
	if used := slab.FloatsUsed(); used > b.slabFloats {
		b.slabFloats = used
	}
	if used := slab.MatsUsed(); used > b.slabMats {
		b.slabMats = used
	}
	return outs, errs
}

// stepModeBatch runs mode i for every live session as blocked kernel
// sweeps, mirroring NUISEScratch operation for operation. Sessions the
// blocked path cannot carry are redone through the engine's own scalar
// stepMode at the end — identical inputs, identical pure function,
// identical bits.
func (b *EngineBatch) stepModeBatch(
	i int,
	engines []*Engine, us []mat.Vec, readings []map[string]mat.Vec,
	perMode [][]*Result, resArr [][]Result, slab *mat.Slab,
	alive, live, redo, hasTesting, implausible, ok []bool,
) {
	bank := b.banks[i]
	K := len(engines)
	n, q := b.n, b.q
	p2, p1, r := bank.p2, bank.p1, bank.r

	// The scalar path would take the Jacobi fallback (r ≤ 0) or is
	// forced onto it by the test hook: nothing to batch for this mode.
	if r <= 0 || forceJacobiLikelihood {
		for s := 0; s < K; s++ {
			if alive[s] {
				scalarMode(engines[s], i, us[s], &resArr[s][i], perMode[s], slab)
			}
		}
		return
	}

	// --- Gather: stack readings, bind per-session state and constants ---
	for s := 0; s < K; s++ {
		live[s], redo[s], hasTesting[s], implausible[s] = false, false, false, false
		if !alive[s] {
			continue
		}
		e := engines[s]
		m := e.modes[i]
		// A missing reference reading fails the mode for this iteration
		// (perMode stays nil), exactly as stepMode's stackReadings error.
		if !stackInto(bank.z2.Block(s), readings[s], m.ReferenceNames) {
			continue
		}
		if m.testingStacked != nil {
			// A missing testing reading degrades to a reference-only
			// update, exactly as stepMode's testing = nil.
			hasTesting[s] = stackInto(bank.z1.Block(s), readings[s], m.testingNames)
		}
		bank.pxPrev.SetBlock(s, e.pxm[i])
		bank.u.SetBlock(s, us[s])
		bank.qc.SetBlock(s, e.plant.Q)
		bank.r2.SetBlock(s, m.Reference.R())
		live[s] = true
	}

	// --- Linearize at the previous estimate (amortized per session) ---
	for s := 0; s < K; s++ {
		if !live[s] {
			continue
		}
		e := engines[s]
		xPrev := e.xm[i]
		if !b.memoValid[s] || !vecBitsEqual(b.memoX[s], xPrev) {
			model := e.plant.Model
			dynamics.EvalAInto(model, b.memoA[s], xPrev, us[s])
			dynamics.EvalGInto(model, b.memoG[s], xPrev, us[s])
			e.plant.wrapState(dynamics.EvalFInto(model, b.memoXP[s], xPrev, us[s]))
			b.memoX[s] = xPrev
			b.memoValid[s] = true
		}
		bank.a.SetBlock(s, b.memoA[s])
		bank.g.SetBlock(s, b.memoG[s])
		bank.xPred0.SetBlock(s, b.memoXP[s])
		sensors.EvalCInto(e.modes[i].Reference, bank.c2.Block(s), b.memoXP[s])
	}

	// --- Step 1: actuator anomaly estimation (lines 2–6) ---
	// pTilde = A·Px·Aᵀ + Q
	mat.MulTBatchInto(bank.pTilde, mat.MulBatchInto(bank.tmpNN, bank.a, bank.pxPrev, live), bank.a, live)
	mat.AddBatchInto(bank.pTilde, bank.pTilde, bank.qc, live)
	// rStar = C2·pTilde·C2ᵀ + R2
	mat.MulTBatchInto(bank.rStar, mat.MulBatchInto(bank.tmpP2N, bank.c2, bank.pTilde, live), bank.c2, live)
	mat.SymmetrizeBatchInto(bank.rStar, mat.AddBatchInto(bank.rStar, bank.rStar, bank.r2, live), live)
	mat.MulBatchInto(bank.c2g, bank.c2, bank.g, live)
	// A factorization failure takes the scalar path's LU fallback — by
	// rerunning the whole scalar step for that session.
	mat.CholFactorBatchInto(bank.rStarChol, bank.rStar, live, ok)
	demote(live, redo, ok)
	mat.CholSolveMatBatchInto(bank.rsInvC2g, bank.rStarChol, bank.c2g, live)
	mat.TMulBatchInto(bank.fisher, bank.c2g, bank.rsInvC2g, live)
	for s := 0; s < K; s++ {
		// daValid=false (EKF degrade) and the fisher LU fallback are
		// scalar-path territory.
		if live[s] && !fisherConditioned(bank.fisher.Block(s)) {
			live[s], redo[s] = false, true
		}
	}
	mat.TBatchInto(bank.rsInvC2gT, bank.rsInvC2g, live)
	mat.CholFactorBatchInto(bank.fisherChol, bank.fisher, live, ok)
	demote(live, redo, ok)
	mat.CholSolveMatBatchInto(bank.m2, bank.fisherChol, bank.rsInvC2gT, live)
	for s := 0; s < K; s++ {
		if !live[s] {
			continue
		}
		reference := engines[s].modes[i].Reference
		sensors.WrapResidual(
			mat.SubVecInto(bank.innov0.Block(s), bank.z2.Block(s),
				sensors.EvalHInto(reference, bank.hRef.Block(s), bank.xPred0.Block(s))),
			reference.AngleIndices())
		bank.da.SetBlock(s, slab.Vec(q))
		b.paM[s] = slab.Mat(q, q)
		bank.pa.SetBlock(s, b.paM[s])
	}
	mat.MulVecBatchInto(bank.da, bank.m2, bank.innov0, live)
	mat.MulTBatchInto(bank.paAcc, mat.MulBatchInto(bank.tmpQP2, bank.m2, bank.rStar, live), bank.m2, live)
	mat.SymmetrizeBatchInto(bank.pa, bank.paAcc, live)

	// --- Step 2: compensated state prediction (lines 7–10) ---
	mat.AddVecBatchInto(bank.uComp, bank.u, bank.da, live)
	for s := 0; s < K; s++ {
		if !live[s] {
			continue
		}
		e := engines[s]
		uComp := bank.uComp.Block(s)
		for j, bound := range e.plant.UMax {
			if bound > 0 && j < uComp.Len() && math.Abs(uComp[j]) > bound {
				implausible[s] = true
			}
		}
		// The compensated prediction becomes the Result's state: carve it
		// from the slab so it may escape, exactly like the scalar step's
		// fresh model.F vector.
		xp := dynamics.EvalFInto(e.plant.Model, slab.Vec(n), e.xm[i], uComp)
		bank.xPred.SetBlock(s, e.plant.wrapState(xp))
	}
	mat.MulBatchInto(bank.gm2, bank.g, bank.m2, live)
	// igm = I − G·M2·C2
	mat.IdentityBatchInto(bank.igm, live)
	mat.SubBatchInto(bank.igm, bank.igm, mat.MulBatchInto(bank.tmpNN, bank.gm2, bank.c2, live), live)
	mat.MulBatchInto(bank.aBar, bank.igm, bank.a, live)
	// qBar = igm·Q·igmᵀ + G·M2·R2·(G·M2)ᵀ
	mat.MulTBatchInto(bank.qBar, mat.MulBatchInto(bank.tmpNN, bank.igm, bank.qc, live), bank.igm, live)
	mat.MulBatchInto(bank.gm2r2, bank.gm2, bank.r2, live)
	mat.AddBatchInto(bank.qBar, bank.qBar, mat.MulTBatchInto(bank.tmpNN, bank.gm2r2, bank.gm2, live), live)
	mat.MulTBatchInto(bank.pxPred, mat.MulBatchInto(bank.tmpNN, bank.aBar, bank.pxPrev, live), bank.aBar, live)
	mat.SymmetrizeBatchInto(bank.pxPred, mat.AddBatchInto(bank.pxPred, bank.pxPred, bank.qBar, live), live)

	// --- Step 3: state estimation (lines 11–14) ---
	// S = −G·M2·R2
	mat.ScaleBatchInto(bank.s, -1, bank.gm2r2, live)
	// r2Tilde = C2·pxPred·C2ᵀ + R2 + C2·S + Sᵀ·C2ᵀ
	mat.MulTBatchInto(bank.r2Tilde, mat.MulBatchInto(bank.tmpP2N, bank.c2, bank.pxPred, live), bank.c2, live)
	mat.AddBatchInto(bank.r2Tilde, bank.r2Tilde, bank.r2, live)
	mat.MulBatchInto(bank.c2s, bank.c2, bank.s, live)
	mat.AddBatchInto(bank.r2Tilde, bank.r2Tilde, bank.c2s, live)
	mat.AddBatchInto(bank.r2Tilde, bank.r2Tilde, mat.TBatchInto(bank.tmpP2P2, bank.c2s, live), live)
	mat.SymmetrizeBatchInto(bank.r2Tilde, bank.r2Tilde, live)
	for s := 0; s < K; s++ {
		if !live[s] {
			continue
		}
		reference := engines[s].modes[i].Reference
		nu := slab.Vec(p2)
		sensors.WrapResidual(
			mat.SubVecInto(nu, bank.z2.Block(s),
				sensors.EvalHInto(reference, bank.hRef.Block(s), bank.xPred.Block(s))),
			reference.AngleIndices())
		bank.nu.SetBlock(s, nu)
	}
	mat.MulTBatchInto(bank.gainNumer, bank.pxPred, bank.c2, live)
	mat.AddBatchInto(bank.gainNumer, bank.gainNumer, bank.s, live)
	// Deflated SPD likelihood path (daValid=true, r = p2−q > 0): any
	// basis or factorization failure falls back per session to the
	// scalar step, which re-derives its own fallback semantics.
	for s := 0; s < K; s++ {
		if !live[s] {
			continue
		}
		ok[s] = mat.RangeComplementInto(bank.zc.Block(s), bank.c2g.Block(s), bank.rcWork.Block(s))
	}
	demote(live, redo, ok)
	mat.MulBatchInto(bank.rsZ, bank.rStar, bank.zc, live)
	for s := 0; s < K; s++ {
		if !live[s] {
			continue
		}
		ok[s] = mat.RangeBasisInto(bank.basis.Block(s), bank.rsZ.Block(s), bank.rbWork.Block(s))
	}
	demote(live, redo, ok)
	mat.TBatchInto(bank.basisT, bank.basis, live)
	mat.MulBatchInto(bank.ru, bank.basisT, mat.MulBatchInto(bank.tmpP2R, bank.r2Tilde, bank.basis, live), live)
	mat.SymmetrizeBatchInto(bank.ru, bank.ru, live)
	mat.CholFactorBatchInto(bank.ruChol, bank.ru, live, ok)
	demote(live, redo, ok)
	// l = gainNumer·R̃2† = (gainNumer·U)·Ru⁻¹·Uᵀ
	mat.MulBatchInto(bank.w, bank.gainNumer, bank.basis, live)
	mat.MulBatchInto(bank.l, bank.w, mat.CholSolveMatBatchInto(bank.sol, bank.ruChol, bank.basisT, live), live)
	mat.MulVecBatchInto(bank.uNu, bank.basisT, bank.nu, live)

	// x = wrap(xPred + L·ν), in place on the fresh model.F vector, which
	// doubles as the Result's state exactly as in the scalar step.
	mat.MulVecBatchInto(bank.lnu, bank.l, bank.nu, live)
	mat.AddVecBatchInto(bank.xPred, bank.xPred, bank.lnu, live)
	for s := 0; s < K; s++ {
		if live[s] {
			engines[s].plant.wrapState(bank.xPred.Block(s))
			b.pxM[s] = slab.Mat(n, n)
			bank.px.SetBlock(s, b.pxM[s])
		}
	}
	// ilc = I − L·C2
	mat.IdentityBatchInto(bank.ilc, live)
	mat.SubBatchInto(bank.ilc, bank.ilc, mat.MulBatchInto(bank.tmpNN, bank.l, bank.c2, live), live)
	// Joseph form: px = ilc·pxPred·ilcᵀ + L·R2·Lᵀ − ilc·S·Lᵀ − L·Sᵀ·ilcᵀ
	mat.MulTBatchInto(bank.pxAcc, mat.MulBatchInto(bank.tmpNN, bank.ilc, bank.pxPred, live), bank.ilc, live)
	mat.AddBatchInto(bank.pxAcc, bank.pxAcc,
		mat.MulTBatchInto(bank.tmpNN, mat.MulBatchInto(bank.tmpNP2, bank.l, bank.r2, live), bank.l, live), live)
	mat.SubBatchInto(bank.pxAcc, bank.pxAcc,
		mat.MulTBatchInto(bank.tmpNN, mat.MulBatchInto(bank.tmpNP2, bank.ilc, bank.s, live), bank.l, live), live)
	mat.SubBatchInto(bank.pxAcc, bank.pxAcc,
		mat.MulTBatchInto(bank.tmpNN, mat.MulTBatchInto(bank.tmpNN2, bank.l, bank.s, live), bank.ilc, live), live)
	mat.SymmetrizeBatchInto(bank.px, bank.pxAcc, live)

	// --- Step 4: testing-sensor anomaly estimation (lines 15–16) ---
	liveTesting := ok // reuse the scratch mask
	for s := 0; s < K; s++ {
		liveTesting[s] = live[s] && hasTesting[s] && p1 > 0
		if !liveTesting[s] {
			continue
		}
		testing := engines[s].modes[i].testingStacked
		ds := slab.Vec(p1)
		sensors.WrapResidual(
			mat.SubVecInto(ds, bank.z1.Block(s),
				sensors.EvalHInto(testing, bank.hTest.Block(s), bank.xPred.Block(s))),
			testing.AngleIndices())
		bank.ds.SetBlock(s, ds)
		sensors.EvalCInto(testing, bank.c1.Block(s), bank.xPred.Block(s))
		bank.r1.SetBlock(s, testing.R())
		b.psM[s] = slab.Mat(p1, p1)
		bank.ps.SetBlock(s, b.psM[s])
	}
	mat.MulTBatchInto(bank.psAcc, mat.MulBatchInto(bank.tmpP1N, bank.c1, bank.px, liveTesting), bank.c1, liveTesting)
	mat.AddBatchInto(bank.psAcc, bank.psAcc, bank.r1, liveTesting)
	mat.SymmetrizeBatchInto(bank.ps, bank.psAcc, liveTesting)

	// --- Assemble results, mirroring the scalar tail ---
	for s := 0; s < K; s++ {
		if !live[s] {
			continue
		}
		res := &resArr[s][i]
		*res = Result{
			X:           bank.xPred.Block(s),
			Px:          b.pxM[s],
			Da:          bank.da.Block(s),
			Pa:          b.paM[s],
			Ps:          slab.Mat(0, 0),
			Likelihood:  0,
			PValue:      0,
			Innovation:  bank.nu.Block(s),
			Implausible: implausible[s],
			DaValid:     true,
		}
		if liveTesting[s] {
			res.Ds = bank.ds.Block(s)
			res.Ps = b.psM[s]
		}
		quad := mat.CholInvQuadForm(bank.ruChol.Block(s), bank.uNu.Block(s), bank.quadWork.Block(s))
		res.Likelihood, res.PValue = likelihoodFromLog(quad, r, mat.CholLogDet(bank.ruChol.Block(s)))
		if res.X.HasNaN() || res.Px.HasNaN() || res.Da.HasNaN() || (res.Ds != nil && res.Ds.HasNaN()) {
			continue // ErrDiverged in the scalar step: the mode sits out
		}
		perMode[s][i] = res
	}

	// --- Scalar redo for everything the blocked path could not carry ---
	for s := 0; s < K; s++ {
		if redo[s] {
			scalarMode(engines[s], i, us[s], &resArr[s][i], perMode[s], slab)
		}
	}
}

// scalarMode runs mode i of e through the engine's own scalar stepMode
// (which reads the frame Step's gather parked), with the Result carved
// from the batch's slab.
func scalarMode(e *Engine, i int, u mat.Vec, res *Result, perMode []*Result, slab *mat.Slab) {
	e.shapes[i].carve(slab, res)
	if e.stepMode(i, u, res) {
		perMode[i] = res
	}
}

// demote moves sessions whose per-block verdict came back false from
// the live mask to the redo set.
func demote(live, redo, ok []bool) {
	for s := range live {
		if live[s] && !ok[s] {
			live[s], redo[s] = false, true
		}
	}
}

// stackInto concatenates the named readings into dst, reporting false
// when any is missing or the total length mismatches. The values are
// exactly what the engine's own stack copies.
func stackInto(dst mat.Vec, readings map[string]mat.Vec, names []string) bool {
	off := 0
	for _, name := range names {
		z, okR := readings[name]
		if !okR || off+len(z) > len(dst) {
			return false
		}
		copy(dst[off:], z)
		off += len(z)
	}
	return off == len(dst)
}

// vecBitsEqual reports exact elementwise equality (NaN-free state
// vectors; a NaN simply forces a recompute).
func vecBitsEqual(a, b mat.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
