package stat

import (
	"math"
	"sort"
)

// The percentile bootstrap's fixed settings: how many resamples an
// interval is read from, and its two-sided level.
const (
	bootstrapResamples = 2000
	BootstrapLevel     = 0.95
)

// Interval is a closed interval [Lo, Hi].
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Bootstrap returns the percentile-bootstrap interval at BootstrapLevel
// of a statistic pooled over n trials. Each of bootstrapResamples
// resamples draws n trial indices with replacement from rng, and pooled
// recomputes the statistic over them, a trial drawn twice counting
// twice. A resample on which the statistic is undefined (pooled returns
// NaN) is left out. ok is false when n < 2 or no resample is defined.
// The draws come from rng alone, so a generator seeded alike gives the
// same interval to the bit.
func Bootstrap(n int, pooled func(trials []int) float64, rng *RNG) (iv Interval, ok bool) {
	if n < 2 {
		return Interval{}, false
	}
	idx := make([]int, n)
	vals := make([]float64, 0, bootstrapResamples)
	for range bootstrapResamples {
		for i := range idx {
			idx[i] = rng.IntN(n)
		}
		if v := pooled(idx); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return Interval{}, false
	}
	sort.Float64s(vals)
	// The interval drops k resamples at each end: the (1−level)/2 tails.
	k := int(float64(len(vals)) * (1 - BootstrapLevel) / 2)
	return Interval{Lo: vals[k], Hi: vals[len(vals)-1-k]}, true
}
