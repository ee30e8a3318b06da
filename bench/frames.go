package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"roboads/internal/api"
	"roboads/internal/fleet"
	"roboads/internal/mat"
	"roboads/internal/robot"
	"roboads/internal/stat"
	"roboads/internal/trace"
)

// refFrames is how many leading reports of every session are compared
// bit for bit with a private in-process detector fed the same frames.
const refFrames = 2048

// approachFrames is how long a generated robot drives straight from the
// profile's start pose before it starts circling: far enough into the lab
// arena that the random walk of a whole run cannot carry it through a
// wall, where the range sensor's model ends.
const approachFrames = 88

// frameGen synthesizes the mission of one hosted session: the Khepera
// kinematic model under a fixed command and process noise, read by the
// profile's sensor suite. It is the construction cmd/loadgen uses, with
// the straight-line command replaced by approach-then-circle so the state
// stays inside the arena however many frames a run gets through. No attack
// is injected, so every frame steps cleanly and the load is the nominal
// serving cost.
type frameGen struct {
	p        robot.Profile
	rng      *stat.RNG
	x        mat.Vec
	straight mat.Vec
	circle   mat.Vec
	k        int
}

func newFrameGen(seed int64) (*frameGen, error) {
	p, err := robot.Named("khepera")
	if err != nil {
		return nil, err
	}
	// 30% of the plausibility envelope, as loadgen drives; the circle
	// splits it 0.8 : 1.2 between the wheels (radius ≈ 0.22 m).
	v := 0.3 * p.UMax[0]
	return &frameGen{
		p: p, rng: stat.NewRNG(seed), x: p.X0.Clone(),
		straight: mat.VecOf(v, v),
		circle:   mat.VecOf(0.8*v, 1.2*v),
	}, nil
}

func (g *frameGen) next() *trace.Frame {
	u := g.circle
	if g.k < approachFrames {
		u = g.straight
	}
	g.x = g.p.Model.F(g.x, u).Add(g.rng.GaussianVec(g.p.ProcessStd))
	f := &trace.Frame{K: g.k, U: []float64(u), Readings: make(map[string][]float64, len(g.p.Suite))}
	for _, s := range g.p.Suite {
		f.Readings[s.Name()] = []float64(s.H(g.x))
	}
	g.k++
	return f
}

// frameInputs converts a wire frame to detector inputs.
func frameInputs(f *trace.Frame) (mat.Vec, map[string]mat.Vec) {
	readings := make(map[string]mat.Vec, len(f.Readings))
	for name, z := range f.Readings {
		readings[name] = mat.Vec(z)
	}
	return mat.Vec(f.U), readings
}

// reportDigest folds every field of a wire report into 64 bits. Floats
// enter by their bit patterns, so two digests agree only when the reports
// agree bit for bit.
func reportDigest(w *api.WireReport) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			word(1)
		} else {
			word(0)
		}
	}
	floats := func(xs []float64) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(math.Float64bits(x))
		}
	}
	word(uint64(w.K))
	h.Write([]byte(w.Mode))
	h.Write([]byte{0})
	h.Write([]byte(w.Condition))
	word(math.Float64bits(w.SensorStat))
	word(math.Float64bits(w.SensorThreshold))
	flag(w.SensorAlarm)
	word(math.Float64bits(w.ActuatorStat))
	word(math.Float64bits(w.ActuatorThreshold))
	flag(w.ActuatorAlarm)
	floats(w.X)
	floats(w.Weights)
	floats(w.Da)
	flag(w.DaValid)
	return h.Sum64()
}

// reference is the uninterrupted in-process answer for one session: the
// report digests a private detector, built the way the server builds a
// session's, gives for the session's frames.
type reference struct {
	det     fleet.Stepper
	digests []uint64
}

func newReference() (*reference, error) {
	det, _, err := fleet.DefaultBuilder()(fleet.Spec{Robot: "khepera"})
	if err != nil {
		return nil, err
	}
	return &reference{det: det}, nil
}

// step feeds the next frame and records its report digest.
func (r *reference) step(f *trace.Frame) error {
	u, readings := frameInputs(f)
	rep, err := r.det.StepContext(context.Background(), u, readings)
	if err != nil {
		return fmt.Errorf("reference detector, frame %d: %w", f.K, err)
	}
	w := fleet.NewWireReport(rep)
	r.digests = append(r.digests, reportDigest(&w))
	return nil
}

// sessionCheck accumulates one session's correctness evidence while it is
// driven: acks arrive exactly once and in order, none carries an error,
// and the leading reports are kept for the bit-for-bit comparison.
type sessionCheck struct {
	frames  []*trace.Frame // the first refFrames frames sent
	digests []uint64       // digests of the first refFrames reports acked
	sent    int
	acked   int
	failed  int
	err     error
}

// sentFrame notes a frame handed to the system.
func (c *sessionCheck) sentFrame(f *trace.Frame) {
	if len(c.frames) < refFrames {
		c.frames = append(c.frames, f)
	}
	c.sent++
}

// ack checks one reply against the next expected frame index.
func (c *sessionCheck) ack(k int, report *api.WireReport, frameErr string) {
	switch {
	case frameErr != "":
		c.fail(fmt.Errorf("frame %d: %s", c.acked, frameErr))
	case report == nil:
		c.fail(fmt.Errorf("frame %d: reply without a report", c.acked))
	case k != c.acked || report.K != c.acked:
		c.fail(fmt.Errorf("ack out of order: got k=%d report.k=%d, want %d", k, report.K, c.acked))
	default:
		if len(c.digests) < refFrames {
			c.digests = append(c.digests, reportDigest(report))
		}
	}
	c.acked++
}

func (c *sessionCheck) fail(err error) {
	c.failed++
	if c.err == nil {
		c.err = err
	}
}

// verify replays the kept frames through a private detector and compares
// the digests. It returns the reference so a caller can keep stepping it
// (the post-recovery continuation check).
func (c *sessionCheck) verify() (*reference, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.acked != c.sent {
		return nil, fmt.Errorf("%d frames sent, %d acked", c.sent, c.acked)
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	for i, f := range c.frames[:len(c.digests)] {
		if err := ref.step(f); err != nil {
			return nil, err
		}
		if ref.digests[i] != c.digests[i] {
			return nil, fmt.Errorf("report %d differs from the in-process detector's", i)
		}
	}
	return ref, nil
}
