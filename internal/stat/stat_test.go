package stat

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"roboads/internal/mat"
	"roboads/internal/testkit"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGSeedsDecorrelated(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided %d times", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Fork("sensors")
	c2 := r.Fork("process")
	if c1.Float64() == c2.Float64() {
		t.Fatal("forked streams identical")
	}
}

func TestGaussianMoments(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Gaussian(2, 3)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("mean = %v, want ≈2", mean)
	}
	if math.Abs(variance-9) > 0.25 {
		t.Fatalf("variance = %v, want ≈9", variance)
	}
}

func TestGaussianVec(t *testing.T) {
	r := NewRNG(5)
	v := r.GaussianVec(mat.VecOf(0, 1, 2))
	if v[0] != 0 {
		t.Fatalf("zero stddev component = %v", v[0])
	}
	if v.Len() != 3 {
		t.Fatalf("len = %d", v.Len())
	}
}

func TestMVNCovariance(t *testing.T) {
	r := NewRNG(11)
	cov := mat.FromRows([]float64{2, 0.8}, []float64{0.8, 1})
	const n = 100000
	acc := mat.New(2, 2)
	for i := 0; i < n; i++ {
		x, err := r.MVN(cov)
		if err != nil {
			t.Fatal(err)
		}
		acc = acc.Add(x.Outer(x))
	}
	empirical := acc.Scale(1.0 / n)
	if !empirical.Equal(cov, 0.05) {
		t.Fatalf("empirical covariance:\n%v", empirical)
	}
}

func TestMVNRejectsIndefinite(t *testing.T) {
	r := NewRNG(1)
	if _, err := r.MVN(mat.Diag(1, -1)); err == nil {
		t.Fatal("expected error for indefinite covariance")
	}
}

func TestNormalPDFCDF(t *testing.T) {
	if got := NormalPDF(0, 0, 1); math.Abs(got-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatalf("pdf(0) = %v", got)
	}
	if got := NormalCDF(0, 0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("cdf(0) = %v", got)
	}
	if got := NormalCDF(1.96, 0, 1); math.Abs(got-0.975) > 1e-3 {
		t.Fatalf("cdf(1.96) = %v", got)
	}
}

// Reference chi-square quantiles (R: qchisq(1-alpha, df)).
func TestChiSquareQuantileReference(t *testing.T) {
	cases := []struct {
		alpha float64
		k     int
		want  float64
	}{
		{0.05, 1, 3.841459},
		{0.05, 2, 5.991465},
		{0.005, 3, 12.83816},
		{0.05, 3, 7.814728},
		{0.01, 10, 23.20925},
		{0.995, 2, 0.01002509},
	}
	for _, c := range cases {
		got, err := ChiSquareQuantile(c.alpha, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-4*c.want+1e-6 {
			t.Fatalf("quantile(%v, %d) = %v, want %v", c.alpha, c.k, got, c.want)
		}
	}
}

func TestChiSquareCDFReference(t *testing.T) {
	// R: pchisq(3.841459, 1) = 0.95
	got, err := ChiSquareCDF(3.841459, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.95) > 1e-6 {
		t.Fatalf("cdf = %v, want 0.95", got)
	}
	if got, _ := ChiSquareCDF(-1, 3); got != 0 {
		t.Fatalf("cdf(-1) = %v, want 0", got)
	}
}

// The CDF's edges answer at once: 1 at +Inf (where a hostile 1e300
// reading's statistic lands) and ErrInvalidParam for NaN, instead of
// running the continued fraction out to "did not converge".
func TestChiSquareCDFEdges(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 64, 100} {
		if got, err := ChiSquareCDF(math.Inf(1), k); got != 1 || err != nil {
			t.Errorf("cdf(+Inf, %d) = %v, %v; want 1, nil", k, got, err)
		}
		if _, err := ChiSquareCDF(math.NaN(), k); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("cdf(NaN, %d): err = %v, want ErrInvalidParam", k, err)
		}
		if got, err := ChiSquareCDF(math.Inf(-1), k); got != 0 || err != nil {
			t.Errorf("cdf(-Inf, %d) = %v, %v; want 0, nil", k, got, err)
		}
	}
}

// The lnΓ(k/2) table has the bits of the math.Lgamma call it replaces.
func TestLnGammaHalfTable(t *testing.T) {
	for k := 1; k < len(lnGammaHalf); k++ {
		if want, _ := math.Lgamma(float64(k) / 2); math.Float64bits(lnGammaHalf[k]) != math.Float64bits(want) {
			t.Errorf("lnGammaHalf[%d] = %v, math.Lgamma = %v", k, lnGammaHalf[k], want)
		}
	}
}

func TestChiSquareInvalidParams(t *testing.T) {
	if _, err := ChiSquareCDF(1, 0); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ChiSquareQuantile(0, 2); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ChiSquareQuantile(1, 2); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("err = %v", err)
	}
}

func TestChiSquareSampleMean(t *testing.T) {
	r := NewRNG(9)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ChiSquareSample(4)
	}
	if mean := sum / n; math.Abs(mean-4) > 0.1 {
		t.Fatalf("sample mean = %v, want ≈4", mean)
	}
}

func TestChiSquareEmpiricalQuantile(t *testing.T) {
	// The fraction of chi-square samples above the (alpha, k) threshold
	// should be ≈ alpha — the exact property the decision maker relies on
	// for its false positive rate.
	r := NewRNG(13)
	threshold, err := ChiSquareQuantile(0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000
	exceed := 0
	for i := 0; i < n; i++ {
		if r.ChiSquareSample(3) > threshold {
			exceed++
		}
	}
	rate := float64(exceed) / n
	if math.Abs(rate-0.05) > 0.005 {
		t.Fatalf("exceedance rate = %v, want ≈0.05", rate)
	}
}

// --- property-based tests -------------------------------------------------

func TestPropertyCDFMonotone(t *testing.T) {
	f := func(seedRaw int64) bool {
		r := NewRNG(seedRaw)
		k := 1 + r.IntN(12)
		x1 := r.Float64() * 30
		x2 := x1 + r.Float64()*10
		p1, err1 := ChiSquareCDF(x1, k)
		p2, err2 := ChiSquareCDF(x2, k)
		return err1 == nil && err2 == nil && p2 >= p1-1e-12 && p1 >= 0 && p2 <= 1
	}
	if err := quick.Check(f, testkit.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQuantileCDFRoundTrip(t *testing.T) {
	f := func(seedRaw int64) bool {
		r := NewRNG(seedRaw)
		k := 1 + r.IntN(12)
		alpha := 0.001 + 0.99*r.Float64()
		q, err := ChiSquareQuantile(alpha, k)
		if err != nil {
			return false
		}
		p, err := ChiSquareCDF(q, k)
		if err != nil {
			return false
		}
		return math.Abs((1-p)-alpha) < 1e-6
	}
	if err := quick.Check(f, testkit.Quick(t, 60)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQuantileMonotoneInAlpha(t *testing.T) {
	f := func(seedRaw int64) bool {
		r := NewRNG(seedRaw)
		k := 1 + r.IntN(8)
		a1 := 0.01 + 0.4*r.Float64()
		a2 := a1 + 0.1
		q1, err1 := ChiSquareQuantile(a1, k)
		q2, err2 := ChiSquareQuantile(a2, k)
		// Larger alpha (less confidence) → smaller threshold.
		return err1 == nil && err2 == nil && q2 < q1
	}
	if err := quick.Check(f, testkit.Quick(t, 40)); err != nil {
		t.Fatal(err)
	}
}

func TestKSUniform(t *testing.T) {
	r := NewRNG(17)
	uniform := make([]float64, 2000)
	for i := range uniform {
		uniform[i] = r.Float64()
	}
	stat, rejected, err := KSUniform(uniform, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rejected {
		t.Fatalf("uniform samples rejected (D=%.4f)", stat)
	}
	// Clearly non-uniform samples must be rejected.
	skewed := make([]float64, 2000)
	for i := range skewed {
		x := r.Float64()
		skewed[i] = x * x
	}
	if _, rejected, _ := KSUniform(skewed, 0.05); !rejected {
		t.Fatal("squared-uniform samples accepted")
	}
	if _, _, err := KSUniform(nil, 0.05); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, _, err := KSUniform([]float64{2}, 0.05); err == nil {
		t.Fatal("out-of-range sample accepted")
	}
}

// The quantile table returns ChiSquareQuantile's bits, is safe when many
// goroutines ask for the same new pairs at once (run under -race), stays
// within maxQuantiles entries, and stores no error.
func TestChiSquareQuantileTable(t *testing.T) {
	alphas := []float64{0.05, 0.01, 0.2, 0.001, 0.0123}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, alpha := range alphas {
				for k := 1; k <= 7; k++ {
					if _, err := ChiSquareQuantileTable(alpha, k); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, alpha := range alphas {
		for k := 1; k <= 7; k++ {
			want, err := ChiSquareQuantile(alpha, k)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := ChiSquareQuantileTable(alpha, k)
				if err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("table(%v, %d) = %v, %v; ChiSquareQuantile gives %v", alpha, k, got, err, want)
				}
			}
		}
	}
	for _, bad := range []float64{0, 1, -0.5, math.NaN()} {
		if _, err := ChiSquareQuantileTable(bad, 2); !errors.Is(err, ErrInvalidParam) {
			t.Fatalf("alpha %v: err = %v", bad, err)
		}
	}
	if _, err := ChiSquareQuantileTable(0.05, 0); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("k = 0: err = %v", err)
	}
	for i := 0; i < maxQuantiles+10; i++ {
		alpha := 0.3 + float64(i)*1e-4
		got, err := ChiSquareQuantileTable(alpha, 1)
		want, _ := ChiSquareQuantile(alpha, 1)
		if err != nil || got != want {
			t.Fatalf("table(%v, 1) = %v, %v; want %v", alpha, got, err, want)
		}
	}
	quantiles.RLock()
	n := len(quantiles.m)
	quantiles.RUnlock()
	if n > maxQuantiles {
		t.Fatalf("table holds %d entries, bound %d", n, maxQuantiles)
	}
}
