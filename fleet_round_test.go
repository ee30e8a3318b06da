package roboads_test

import (
	"context"
	"math"
	"testing"
	"time"

	"roboads/internal/detect"
	"roboads/internal/fleet"
	"roboads/internal/mat"
	"roboads/internal/robot"
	"roboads/internal/stat"
	"roboads/internal/testkit"
)

// bench/'s fleet_durable round: 16 durable Khepera sessions under a 2 ms
// commit window, each round a 4-frame SubmitBatch to every session and
// then a Wait on each. The benchmark and the tests below all drive it
// through durableRound, on frames from durableFrames.
const durableSessions, durableBatch = 16, 4

// durableRound starts the round's manager and sessions and returns one
// round. next returns the round's batch for session i; check, when not
// nil, sees each session's results after its Wait.
func durableRound(tb testing.TB, next func(i int) []fleet.BatchFrame, check func(i int, res []fleet.FrameResult)) func() {
	mgr, err := fleet.NewManager(fleet.Config{
		Build:      fleet.DefaultBuilder(),
		Durability: fleet.Durability{Dir: tb.TempDir(), CommitWindow: 2 * time.Millisecond},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { mgr.Shutdown(context.Background()) })
	ids := make([]string, durableSessions)
	for i := range ids {
		info, err := mgr.Create(fleet.Spec{Robot: "khepera"})
		if err != nil {
			tb.Fatal(err)
		}
		ids[i] = info.ID
	}
	pending := make([]*fleet.PendingBatch, len(ids))
	return func() {
		for i, id := range ids {
			if pending[i], err = mgr.SubmitBatch(id, next(i)); err != nil {
				tb.Fatal(err)
			}
		}
		for i, p := range pending {
			res, err := p.Wait(context.Background())
			if err != nil {
				tb.Fatal(err)
			}
			for _, r := range res {
				if r.Err != nil {
					tb.Fatalf("session %s: %v", ids[i], r.Err)
				}
			}
			if check != nil {
				check(i, res)
			}
		}
	}
}

// durableFrames returns four missions of n frames, as bench/'s
// fleet_durable drives a hosted robot: straight from the Khepera's start
// pose at 30% of the command envelope for 88 frames, then a circle, under
// the profile's process noise. Session i flies mission i mod 4.
func durableFrames(tb testing.TB, n int) [][]fleet.BatchFrame {
	p, err := robot.Named("khepera")
	if err != nil {
		tb.Fatal(err)
	}
	v := 0.3 * p.UMax[0]
	straight, circle := mat.VecOf(v, v), mat.VecOf(0.8*v, 1.2*v)
	sets := make([][]fleet.BatchFrame, 4)
	for s := range sets {
		rng := stat.NewRNG(int64(s))
		x := p.X0.Clone()
		sets[s] = make([]fleet.BatchFrame, n)
		for k := range sets[s] {
			u := circle
			if k < 88 {
				u = straight
			}
			x = p.Model.F(x, u).Add(rng.GaussianVec(p.ProcessStd))
			readings := make(map[string]mat.Vec, len(p.Suite))
			for _, sn := range p.Suite {
				readings[sn.Name()] = sn.H(x)
			}
			sets[s][k] = fleet.BatchFrame{U: u, Readings: readings}
		}
	}
	return sets
}

// BenchmarkFleetDurableRound is the round as a Go benchmark, so it can be
// profiled (make profile-fleet). The frames are generated before the
// timer starts, so B/op is the program's bytes per round.
func BenchmarkFleetDurableRound(b *testing.B) {
	sets := durableFrames(b, b.N*durableBatch)
	r := 0
	round := durableRound(b, func(i int) []fleet.BatchFrame {
		return sets[i%len(sets)][r*durableBatch : (r+1)*durableBatch]
	}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for ; r < b.N; r++ {
		round()
	}
	b.ReportMetric(float64(durableSessions*durableBatch)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// The program's bytes per frame on the round — every goroutine's: the
// shard workers' steps and WAL appends, the flusher's group commits, the
// replies. The frames are built before the count starts. The ceiling is
// what this round measures, with room for where the 2 ms group commits
// fall; fresh per-mode engine results or a log record built per frame
// fail it.
func TestFleetDurableRoundBytes(t *testing.T) {
	const warm, rounds, ceiling = 10, 40, 1470
	sets := durableFrames(t, (warm+rounds+1)*durableBatch)
	at := make([]int, durableSessions)
	round := durableRound(t, func(i int) []fleet.BatchFrame {
		b := sets[i%len(sets)][at[i] : at[i]+durableBatch]
		at[i] += durableBatch
		return b
	}, nil)
	for r := 0; r < warm; r++ {
		round()
	}
	if got := testkit.BytesPerRun(rounds, round) / (durableSessions * durableBatch); got > ceiling {
		t.Fatalf("a fleet_durable round allocates %.0f B per frame, ceiling %d", got, ceiling)
	}
}

// Every report of a batch is its caller's: read after Wait, when the
// batch's later frames have long stepped, each equals what a fresh
// detector reported for its frame the moment it stepped. A fleet or an
// engine that handed out storage it writes again would show a later
// frame's values in an earlier report.
func TestBatchReportsAreTheCallers(t *testing.T) {
	const rounds = 12
	sets := durableFrames(t, rounds*durableBatch)
	want := make([][][]float64, len(sets))
	for s, frames := range sets {
		stepper, _, err := fleet.DefaultBuilder()(fleet.Spec{Robot: "khepera"})
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range frames {
			rep, err := stepper.StepContext(context.Background(), fr.U, fr.Readings)
			if err != nil {
				t.Fatal(err)
			}
			want[s] = append(want[s], flattenReport(rep))
		}
		stepper.Close()
	}
	at := make([]int, durableSessions)
	round := durableRound(t, func(i int) []fleet.BatchFrame {
		return sets[i%len(sets)][at[i] : at[i]+durableBatch]
	}, func(i int, res []fleet.FrameResult) {
		for j, r := range res {
			k := at[i] + j
			if got := flattenReport(r.Report); !sameBits(got, want[i%len(sets)][k]) {
				t.Fatalf("session %d frame %d: report read after Wait differs from a fresh detector's", i, k)
			}
		}
		at[i] += durableBatch
	})
	for r := 0; r < rounds; r++ {
		round()
	}
}

// flattenReport lists every number a report holds, in a fixed order.
func flattenReport(rep *detect.Report) []float64 {
	out, dec := rep.Engine, rep.Decision
	res := out.Result
	flat := []float64{float64(out.Iteration), float64(out.Selected), res.Likelihood, res.PValue}
	flat = append(flat, out.Weights...)
	for _, v := range []mat.Vec{res.X, res.Da, res.Ds, res.Innovation, dec.Da} {
		flat = append(append(flat, float64(len(v))), v...)
	}
	mats := []*mat.Mat{res.Px, res.Pa, res.Ps}
	for _, sa := range out.SensorAnomalies {
		flat = append(flat, sa.Ds...)
	}
	for _, m := range mats {
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				flat = append(flat, m.At(i, j))
			}
		}
	}
	flat = append(flat, dec.SensorStat, dec.SensorThreshold, dec.ActuatorStat, dec.ActuatorThreshold)
	flat = append(flat, dec.PerSensorStats...)
	for _, b := range []bool{res.Implausible, res.DaValid, dec.SensorRaw, dec.SensorAlarm, dec.ActuatorRaw, dec.ActuatorAlarm} {
		if b {
			flat = append(flat, 1)
		} else {
			flat = append(flat, 0)
		}
	}
	return append(flat, float64(len(dec.Condition.String())))
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
