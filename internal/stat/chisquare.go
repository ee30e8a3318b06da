package stat

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// ErrInvalidParam indicates an out-of-domain distribution parameter.
var ErrInvalidParam = errors.New("stat: invalid parameter")

// lnGammaHalf[k] is lnΓ(k/2), the normalization of a chi-square variable
// with k degrees of freedom, for the k the detector tests (one entry per
// reading dimension it stacks); built with math.Lgamma, so a lookup has
// the bits of the call it replaces.
var lnGammaHalf [64]float64

func init() {
	for k := 1; k < len(lnGammaHalf); k++ {
		lnGammaHalf[k], _ = math.Lgamma(float64(k) / 2)
	}
}

// regularizedGammaP computes P(s, x) = γ(s, x)/Γ(s), the lower regularized
// incomplete gamma function at s > 0 and finite x ≥ 0, from lg = lnΓ(s),
// using the series expansion for x < s+1 and the continued fraction for
// x ≥ s+1 (Numerical Recipes style).
func regularizedGammaP(s, x, lg float64) (float64, error) {
	if x < s+1 {
		return gammaPSeries(s, x, lg)
	}
	q, err := gammaQContinuedFraction(s, x, lg)
	if err != nil {
		return 0, err
	}
	return 1 - q, nil
}

func gammaPSeries(s, x, lg float64) (float64, error) {
	ap := s
	sum := 1 / s
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			return sum * math.Exp(-x+s*math.Log(x)-lg), nil
		}
	}
	return 0, errors.New("stat: incomplete gamma series did not converge")
}

func gammaQContinuedFraction(s, x, lg float64) (float64, error) {
	const tiny = 1e-300
	b := x + 1 - s
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - s)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			return math.Exp(-x+s*math.Log(x)-lg) * h, nil
		}
	}
	return 0, errors.New("stat: incomplete gamma continued fraction did not converge")
}

// ChiSquareCDF returns P(X ≤ x) for a chi-square variable with k degrees
// of freedom: 0 for x ≤ 0, 1 for x = +Inf, and ErrInvalidParam for a NaN
// x.
func ChiSquareCDF(x float64, k int) (float64, error) {
	switch {
	case k <= 0:
		return 0, fmt.Errorf("%w: degrees of freedom %d", ErrInvalidParam, k)
	case math.IsNaN(x):
		return 0, fmt.Errorf("%w: x %v", ErrInvalidParam, x)
	case x <= 0:
		return 0, nil
	case math.IsInf(x, 1):
		return 1, nil
	}
	s := float64(k) / 2
	var lg float64
	if k < len(lnGammaHalf) {
		lg = lnGammaHalf[k]
	} else {
		lg, _ = math.Lgamma(s)
	}
	return regularizedGammaP(s, x/2, lg)
}

// ChiSquareQuantile returns the threshold t with P(X > t) = alpha for a
// chi-square variable with k degrees of freedom. This is the detection
// threshold used by the decision maker: a test statistic above t rejects
// the "no anomaly" hypothesis at confidence level alpha.
func ChiSquareQuantile(alpha float64, k int) (float64, error) {
	if k <= 0 {
		return 0, fmt.Errorf("%w: degrees of freedom %d", ErrInvalidParam, k)
	}
	if !(alpha > 0 && alpha < 1) {
		return 0, fmt.Errorf("%w: alpha %v outside (0,1)", ErrInvalidParam, alpha)
	}
	target := 1 - alpha
	// Bracket the quantile, then bisect. The mean is k and the variance
	// 2k, so k + 20·sqrt(2k) + 50 comfortably covers any practical alpha.
	lo, hi := 0.0, float64(k)+20*math.Sqrt(2*float64(k))+50
	for p, _ := ChiSquareCDF(hi, k); p < target; p, _ = ChiSquareCDF(hi, k) {
		hi *= 2
		if hi > 1e12 {
			return 0, fmt.Errorf("%w: alpha %v too small to bracket", ErrInvalidParam, alpha)
		}
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		p, err := ChiSquareCDF(mid, k)
		if err != nil {
			return 0, err
		}
		if p < target {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return 0.5 * (lo + hi), nil
}

// quantiles is the process's table of ChiSquareQuantile results by
// (alpha, k): the few pairs a detector tests at, each bisected once. It
// holds at most maxQuantiles entries; a pair past that is computed on
// every call, never stored.
var quantiles struct {
	sync.RWMutex
	m map[quantileKey]float64
}

type quantileKey struct {
	alpha float64
	k     int
}

const maxQuantiles = 256

// ChiSquareQuantileTable is ChiSquareQuantile with the same bits, looked
// up in a process-wide table that computes each (alpha, k) pair once. It
// is safe for concurrent use; errors are returned, not stored.
func ChiSquareQuantileTable(alpha float64, k int) (float64, error) {
	key := quantileKey{alpha, k}
	quantiles.RLock()
	t, ok := quantiles.m[key]
	quantiles.RUnlock()
	if ok {
		return t, nil
	}
	t, err := ChiSquareQuantile(alpha, k)
	if err != nil {
		return 0, err
	}
	quantiles.Lock()
	if quantiles.m == nil {
		quantiles.m = make(map[quantileKey]float64)
	}
	if len(quantiles.m) < maxQuantiles {
		quantiles.m[key] = t
	}
	quantiles.Unlock()
	return t, nil
}

// ChiSquareSample draws a chi-square sample with k degrees of freedom as a
// sum of squared standard normals.
func (r *RNG) ChiSquareSample(k int) float64 {
	var sum float64
	for i := 0; i < k; i++ {
		z := r.Norm()
		sum += z * z
	}
	return sum
}

// KSUniform computes the one-sample Kolmogorov–Smirnov statistic of the
// samples against the U(0,1) distribution and reports whether uniformity
// is rejected at the given significance level (asymptotic critical
// value c(α)/√n with c ≈ 1.36 for α = 0.05, 1.63 for α = 0.01).
func KSUniform(samples []float64, alpha float64) (statistic float64, rejected bool, err error) {
	n := len(samples)
	if n == 0 {
		return 0, false, fmt.Errorf("%w: no samples", ErrInvalidParam)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for i, x := range sorted {
		if x < 0 || x > 1 {
			return 0, false, fmt.Errorf("%w: sample %v outside [0,1]", ErrInvalidParam, x)
		}
		lo := x - float64(i)/float64(n)
		hi := float64(i+1)/float64(n) - x
		if lo > statistic {
			statistic = lo
		}
		if hi > statistic {
			statistic = hi
		}
	}
	var c float64
	switch {
	case alpha <= 0.01:
		c = 1.63
	case alpha <= 0.05:
		c = 1.36
	default:
		c = 1.22 // α = 0.10
	}
	critical := c / math.Sqrt(float64(n))
	return statistic, statistic > critical, nil
}
