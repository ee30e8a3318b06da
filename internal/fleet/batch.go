package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/telemetry"
)

// Frame coalescing (Config.Batching > 1): a shard worker serving a
// session drains other runnable sessions with the same batch
// fingerprint from the run queue in the same scheduling quantum and
// steps their frames in lockstep through one blocked
// detect.DetectorBatch pass. Everything a scalar quantum guarantees per
// session is preserved — the step mutex is held for every coalesced
// session, frames of one submission step strictly in order, every job
// takes the same complete tail (WAL reply-after-fsync ordering, group
// commit, reply) as a scalar one, and each session reschedules itself
// afterwards — so the report streams are bit-for-bit the scalar streams
// (the batched engine's own contract), just produced with fewer passes
// over the shared mode-bank algebra.

// batchSpace is the cached blocked workspace for one batch fingerprint.
// mu serializes use: the workspace holds per-slot staging buffers, so
// two workers coalescing the same profile concurrently must not share
// it — the loser of TryLock falls back to scalar processing instead of
// waiting, keeping the quantum non-blocking.
type batchSpace struct {
	mu     sync.Mutex
	db     *detect.DetectorBatch
	failed bool // workspace construction failed; stay scalar for this key
}

// batchItem is one coalesced session with its dequeued job.
type batchItem struct {
	s   *session
	job frameJob
	det *detect.Detector
}

// batchDetector reports the session's batchable detector, or nil when
// the stepper is not a *detect.Detector (test doubles, custom builders).
func batchDetector(s *session) *detect.Detector {
	det, _ := s.stepper.(*detect.Detector)
	return det
}

// serveBatched is serve with coalescing: after dequeuing the lead
// session's job it steals up to Batching−1 more runnable sessions,
// keeps the ones sharing the lead's fingerprint, and requeues the rest
// untouched. The lead's run-queue token is held by this worker and each
// stolen token is either consumed (the session is served here) or put
// back, so the ≤1-entry-per-session invariant survives.
func (m *Manager) serveBatched(lead *session) {
	job, ok := m.pop(lead)
	if !ok {
		lead.scheduled.Store(false)
		if len(lead.frames) > 0 {
			m.schedule(lead)
		}
		return
	}
	leadDet := batchDetector(lead)
	if leadDet == nil {
		m.finish(batchItem{s: lead, job: job})
		return
	}

	key := leadDet.BatchKey()
	group := []batchItem{{s: lead, job: job, det: leadDet}}
	var requeue []*session
	for len(group) < m.cfg.Batching {
		var p *session
		select {
		case p, ok = <-m.runq:
		default:
			ok = false
		}
		if !ok || p == nil {
			break
		}
		det := batchDetector(p)
		if det == nil || det.BatchKey() != key {
			// Different profile: hand the token back after the steal
			// loop (not inside it, or we would steal it right back).
			requeue = append(requeue, p)
			continue
		}
		pj, pok := m.pop(p)
		if !pok {
			p.scheduled.Store(false)
			if len(p.frames) > 0 {
				m.schedule(p)
			}
			continue
		}
		group = append(group, batchItem{s: p, job: pj, det: det})
	}
	// Safe even during shutdown: this worker still holds accepted frames
	// (inflight > 0), so Shutdown cannot have closed runq yet.
	for _, p := range requeue {
		m.runq <- p
	}

	if len(group) == 1 {
		m.finish(group[0])
		return
	}
	ws := m.batchSpaceFor(key, leadDet)
	if ws == nil || !ws.mu.TryLock() {
		// No workspace (construction failed) or another worker is mid-pass
		// on this profile: serve everyone scalar rather than wait.
		for _, it := range group {
			m.finish(it)
		}
		return
	}
	m.processBatch(ws.db, group)
	ws.mu.Unlock()
}

// batchSpaceFor returns the cached workspace for key, creating it from
// proto on first use. A failed construction is remembered so the
// profile stays on the scalar path instead of re-failing every quantum.
func (m *Manager) batchSpaceFor(key uint64, proto *detect.Detector) *batchSpace {
	m.batchMu.Lock()
	defer m.batchMu.Unlock()
	ws, ok := m.batches[key]
	if !ok {
		ws = &batchSpace{}
		db, err := detect.NewDetectorBatch(proto, m.cfg.Batching)
		if err != nil {
			ws.failed = true
		} else {
			ws.db = db
		}
		m.batches[key] = ws
	}
	if ws.failed {
		return nil
	}
	return ws
}

// finish serves one session scalar — process plus the scheduling tail
// serve would have run.
func (m *Manager) finish(it batchItem) {
	m.process(it.s, it.job)
	it.s.scheduled.Store(false)
	if len(it.s.frames) > 0 {
		m.schedule(it.s)
	}
}

// processBatch steps the group's jobs in frame lockstep: frame j of
// every session steps in one blocked pass, sessions whose jobs are
// shorter drop out of later rounds, and a lone remaining session takes
// the scalar path (a batch of one buys nothing). The caller holds the
// workspace lock for the whole pass (the workspace stages per-slot
// state). Per-session semantics are process's: the same step mutex, the
// same per-frame record, the same complete tail.
func (m *Manager) processBatch(db *detect.DetectorBatch, items []batchItem) {
	k := len(items)
	results := make([][]FrameResult, k)
	appended := make([]int, k)
	active := make([]bool, k)
	maxFrames := 0
	for idx, it := range items {
		results[idx] = make([]FrameResult, len(it.job.frames))
		it.s.stepMu.Lock()
		if it.s.isClosed() {
			failAll(results[idx], fmt.Errorf("%w: session %s", ErrClosed, it.s.info.ID))
			continue
		}
		active[idx] = true
		if len(it.job.frames) > maxFrames {
			maxFrames = len(it.job.frames)
		}
	}

	dets := make([]*detect.Detector, 0, k)
	us := make([]mat.Vec, 0, k)
	readings := make([]map[string]mat.Vec, 0, k)
	slots := make([]int, 0, k)
	for j := 0; j < maxFrames; j++ {
		dets, us, readings, slots = dets[:0], us[:0], readings[:0], slots[:0]
		for idx, it := range items {
			if !active[idx] || j >= len(it.job.frames) {
				continue
			}
			slots = append(slots, idx)
			dets = append(dets, it.det)
			us = append(us, it.job.frames[j].U)
			readings = append(readings, it.job.frames[j].Readings)
			// Coalesce stage: steal-loop time plus the rounds this frame
			// waited for its predecessors to clear the blocked pass.
			it.job.frames[j].Span.Lap(telemetry.StageCoalesce)
		}
		if len(slots) == 0 {
			break
		}
		start := time.Now()
		var reps []*detect.Report
		var errs []error
		if len(slots) == 1 {
			rep, err := items[slots[0]].det.StepContext(context.Background(), us[0], readings[0])
			reps, errs = []*detect.Report{rep}, []error{err}
		} else {
			reps, errs = db.Step(dets, us, readings)
		}
		// One blocked pass stepped every slot; its wall time is the shared
		// cost of the whole round (same attribution the engine observer
		// sees — DESIGN.md §13).
		elapsed := time.Since(start).Seconds()
		for i, idx := range slots {
			it := items[idx]
			fr := it.job.frames[j]
			// The blocked pass (plus earlier slots' WAL work this round)
			// is the frame's step stage — the same shared-cost
			// attribution elapsed carries below.
			fr.Span.Lap(telemetry.StageStep)
			results[idx][j] = m.record(it.s, fr, reps[i], errs[i], &appended[idx])
			m.mStepSeconds.Observe(elapsed)
		}
	}

	for idx, it := range items {
		s := it.s
		m.complete(s, it.job, results[idx], appended[idx])
		s.stepMu.Unlock()
		s.scheduled.Store(false)
		if len(s.frames) > 0 {
			m.schedule(s)
		}
	}
}
