package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinearRegressionExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3.5*x + 2
	}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatalf("LinearRegression: %v", err)
	}
	if math.Abs(fit.Slope-3.5) > 1e-9 {
		t.Errorf("slope = %v, want 3.5", fit.Slope)
	}
	if math.Abs(fit.Intercept-2) > 1e-9 {
		t.Errorf("intercept = %v, want 2", fit.Intercept)
	}
	if fit.R2 < 0.999999 {
		t.Errorf("R2 = %v, want ~1", fit.R2)
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	rng := NewRNG(7)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2*xs[i] + 10 + rng.NormFloat64()*0.5
	}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatalf("LinearRegression: %v", err)
	}
	if math.Abs(fit.Slope-2) > 0.05 {
		t.Errorf("slope = %v, want ~2", fit.Slope)
	}
	if math.Abs(fit.Intercept-10) > 1 {
		t.Errorf("intercept = %v, want ~10", fit.Intercept)
	}
}

func TestLinearRegressionDegenerate(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{2}); err != ErrDegenerate {
		t.Errorf("single point: err = %v, want ErrDegenerate", err)
	}
	if _, err := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); err != ErrDegenerate {
		t.Errorf("constant x: err = %v, want ErrDegenerate", err)
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err != ErrDegenerate {
		t.Errorf("mismatched lengths: err = %v, want ErrDegenerate", err)
	}
}

func TestEntropyUniformIsMax(t *testing.T) {
	uniform := []float64{1, 1, 1, 1}
	if got, want := Entropy(uniform), 2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Entropy(uniform4) = %v, want %v", got, want)
	}
	point := []float64{1, 0, 0, 0}
	if got := Entropy(point); got != 0 {
		t.Errorf("Entropy(point mass) = %v, want 0", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Errorf("Entropy(nil) = %v, want 0", got)
	}
}

func TestEntropySkewedBelowUniform(t *testing.T) {
	skewed := []float64{0.9, 0.05, 0.03, 0.02}
	if Entropy(skewed) >= Entropy([]float64{1, 1, 1, 1}) {
		t.Error("skewed distribution should have lower entropy than uniform")
	}
}

// Property: entropy is scale-invariant and bounded by log2(n).
func TestEntropyProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		var positive int
		for i, b := range raw {
			w[i] = float64(b)
			if b > 0 {
				positive++
			}
		}
		if positive == 0 {
			return Entropy(w) == 0
		}
		h := Entropy(w)
		if h < -1e-9 || h > math.Log2(float64(positive))+1e-9 {
			return false
		}
		scaled := make([]float64, len(w))
		for i := range w {
			scaled[i] = w[i] * 1000
		}
		return math.Abs(Entropy(scaled)-h) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		q, want float64
	}{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {10, 14},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	rng := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestZipfSkewConcentrates(t *testing.T) {
	rng := NewRNG(5)
	z := NewZipf(rng, 1000, 1.2)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample()]++
	}
	// Rank 0 should dominate under heavy skew.
	if counts[0] < counts[500]*10 {
		t.Errorf("zipf skew too weak: rank0=%d rank500=%d", counts[0], counts[500])
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if float64(top10)/n < 0.3 {
		t.Errorf("top-10 ranks carry %v of traffic, want >= 0.3", float64(top10)/n)
	}
}

func TestZipfZeroSkewUniform(t *testing.T) {
	rng := NewRNG(6)
	z := NewZipf(rng, 10, 0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample()]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if frac < 0.07 || frac > 0.13 {
			t.Errorf("rank %d frac = %v, want ~0.1", i, frac)
		}
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}
