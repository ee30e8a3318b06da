package stat

import (
	"math"
	"testing"
)

// ratioOf pools per-trial (hits, total) counts into hits/total over the
// drawn trials.
func ratioOf(hits, total []int) func([]int) float64 {
	return func(trials []int) float64 {
		h, n := 0, 0
		for _, t := range trials {
			h += hits[t]
			n += total[t]
		}
		return float64(h) / float64(n)
	}
}

func TestBootstrapRepeats(t *testing.T) {
	pooled := ratioOf([]int{1, 4, 0, 2, 7}, []int{10, 12, 9, 10, 11})
	a, okA := Bootstrap(5, pooled, NewRNG(3).Fork("x"))
	b, okB := Bootstrap(5, pooled, NewRNG(3).Fork("x"))
	if !okA || !okB || a != b {
		t.Fatalf("two calls: %v %v, %v %v", a, okA, b, okB)
	}
	if a.Lo >= a.Hi {
		t.Fatalf("interval %v of differing trials has no width", a)
	}
}

func TestBootstrapIdenticalTrials(t *testing.T) {
	hits, total := []int{3, 3, 3, 3, 3, 3}, []int{10, 10, 10, 10, 10, 10}
	iv, ok := Bootstrap(len(hits), ratioOf(hits, total), NewRNG(1))
	if !ok || iv.Lo != 0.3 || iv.Hi != 0.3 {
		t.Fatalf("identical trials: %v %v, want [0.3, 0.3]", iv, ok)
	}
}

func TestBootstrapOneTrial(t *testing.T) {
	for n := 0; n < 2; n++ {
		if iv, ok := Bootstrap(n, ratioOf([]int{1}, []int{2}), NewRNG(1)); ok {
			t.Fatalf("%d trials gave interval %v", n, iv)
		}
	}
}

// Two trials, A with 0 hits of 2 and B with 3 of 6, pool to 3/8. A
// resample is AA (probability 1/4) pooling to 0/4, AB or BA (1/2) to
// 3/8, or BB (1/4) to 6/12. About 500 of the 2000 resamples sit at each
// end, against the 50 the interval drops there, so the 95% interval is
// [0, 0.5] for any draws. Averaging the trials' own rates instead of
// pooling their counts would centre it on 0.25, not 3/8.
func TestBootstrapPooledBounds(t *testing.T) {
	pooled := ratioOf([]int{0, 3}, []int{2, 6})
	point := pooled([]int{0, 1})
	iv, ok := Bootstrap(2, pooled, NewRNG(7))
	if !ok || iv != (Interval{Lo: 0, Hi: 0.5}) {
		t.Fatalf("interval %v %v, want [0, 0.5]", iv, ok)
	}
	if point != 0.375 || point < iv.Lo || point > iv.Hi {
		t.Fatalf("point estimate %v outside %v", point, iv)
	}
}

// A statistic that numbers its calls makes the sorted resamples
// 0, 1, …, 1999 whatever is drawn, so the interval's ends are the
// percentile indices themselves: 2.5% of 2000 is 50 dropped at each end.
// Undefined (NaN) resamples are left out: with every odd call undefined
// the 1000 defined ones are 0, 2, …, 1998 and 25 go at each end.
func TestBootstrapPercentileIndex(t *testing.T) {
	calls := 0
	count := func([]int) float64 {
		calls++
		return float64(calls - 1)
	}
	if iv, ok := Bootstrap(3, count, NewRNG(1)); !ok || iv != (Interval{Lo: 50, Hi: 1949}) {
		t.Fatalf("numbered resamples: %v %v, want [50, 1949]", iv, ok)
	}
	calls = 0
	evens := func(trials []int) float64 {
		if v := count(trials); int(v)%2 == 0 {
			return v
		}
		return math.NaN()
	}
	if iv, ok := Bootstrap(3, evens, NewRNG(1)); !ok || iv != (Interval{Lo: 50, Hi: 1948}) {
		t.Fatalf("half undefined: %v %v, want [50, 1948]", iv, ok)
	}
	undefined := func([]int) float64 { return math.NaN() }
	if iv, ok := Bootstrap(3, undefined, NewRNG(1)); ok {
		t.Fatalf("never defined: gave %v", iv)
	}
}
