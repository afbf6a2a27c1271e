// Package stats provides the statistical toolkit used throughout the
// GLOVE reproduction: empirical distribution functions, quantiles,
// summary statistics, the inverse of the standard normal CDF, and the
// Tail Weight Index (TWI) the paper uses in Sec. 5.3 to show that the
// temporal components of sample stretch efforts are heavy tailed.
package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrEmpty is returned by constructors and estimators that need at least
// one observation.
var ErrEmpty = errors.New("stats: empty sample")

// ECDF is an empirical cumulative distribution function over a sample.
// The zero value is empty and unusable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from the observations in xs. The input
// slice is copied and may be reused by the caller. NaN observations are
// rejected.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	for _, v := range s {
		if math.IsNaN(v) {
			return nil, errors.New("stats: NaN observation")
		}
	}
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// Len returns the number of observations.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns the fraction of observations <= x.
func (e *ECDF) At(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// need the count of values <= x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the p-quantile (0 <= p <= 1) using the nearest-rank
// method with linear interpolation (Hyndman-Fan type 7, the common
// default).
func (e *ECDF) Quantile(p float64) float64 {
	return quantileSorted(e.sorted, p)
}

// Min and Max return the sample extremes.
func (e *ECDF) Min() float64 { return e.sorted[0] }

// Max returns the largest observation.
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// Points returns up to n (x, F(x)) pairs suitable for plotting or for
// printing a CDF series. The points are evenly spaced in probability and
// always include the extremes.
func (e *ECDF) Points(n int) []CDFPoint {
	if n < 2 {
		n = 2
	}
	pts := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		p := float64(i) / float64(n-1)
		x := e.Quantile(p)
		pts = append(pts, CDFPoint{X: x, F: p})
	}
	return pts
}

// CDFPoint is one point of a CDF series: F is the cumulative probability
// at value X.
type CDFPoint struct {
	X float64
	F float64
}

// quantileSorted computes the type-7 quantile of an ascending-sorted
// non-empty slice.
func quantileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Quantile computes the p-quantile of an unsorted sample without building
// an ECDF. It returns an error on empty input.
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, p), nil
}

// Summary holds the descriptive statistics reported in the paper's
// tables and figure annotations.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	P25    float64
	P75    float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Summary{
		N:      len(s),
		Mean:   sum / float64(len(s)),
		Median: quantileSorted(s, 0.5),
		P25:    quantileSorted(s, 0.25),
		P75:    quantileSorted(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
	}, nil
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g median=%.4g p25=%.4g p75=%.4g min=%.4g max=%.4g",
		s.N, s.Mean, s.Median, s.P25, s.P75, s.Min, s.Max)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// NormQuantile returns the p-quantile of the standard normal
// distribution, using the Acklam rational approximation (relative error
// below 1.15e-9 over the full range). It panics if p is outside (0, 1).
func NormQuantile(p float64) float64 {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: NormQuantile of %v outside (0,1)", p))
	}
	// Coefficients of the Acklam approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const pLow, pHigh = 0.02425, 1 - 0.02425

	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// TWI computes the Tail Weight Index of a sample (Hoaglin, Mosteller,
// Tukey, "Understanding Robust and Exploratory Data Analysis", 1983): the
// upper-tail quantile spread of the sample normalized by that of the
// standard normal distribution,
//
//	TWI = [(q99 - q50) / (q75 - q50)] / [(z99 - z50) / (z75 - z50)]
//
// so a Gaussian sample scores ~1. The calibration matches the paper's
// footnote 5: an Exp(1) sample scores ~1.6 and a Pareto sample with shape
// 1 scores ~14. Values >= 1.5 indicate a heavy tail.
//
// Degenerate samples whose interquartile spread (q75 - q50) is zero have
// an undefined tail shape; TWI returns an error for those and for samples
// with fewer than 4 observations.
func TWI(xs []float64) (float64, error) {
	if len(xs) < 4 {
		return 0, fmt.Errorf("stats: TWI needs >= 4 observations, got %d", len(xs))
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	q50 := quantileSorted(s, 0.50)
	q75 := quantileSorted(s, 0.75)
	q99 := quantileSorted(s, 0.99)
	if q75-q50 <= 0 {
		return 0, errors.New("stats: TWI undefined (zero interquartile spread)")
	}
	zRatio := NormQuantile(0.99) / NormQuantile(0.75) // z50 = 0
	return ((q99 - q50) / (q75 - q50)) / zRatio, nil
}

// Histogram counts observations into nbins equal-width bins over
// [min, max]. Out-of-range observations are clamped to the end bins. It
// is used by the experiment drivers to print compact distribution rows.
func Histogram(xs []float64, min, max float64, nbins int) ([]int, error) {
	if nbins <= 0 {
		return nil, fmt.Errorf("stats: nbins = %d must be positive", nbins)
	}
	if max <= min {
		return nil, fmt.Errorf("stats: bad range [%g, %g]", min, max)
	}
	counts := make([]int, nbins)
	w := (max - min) / float64(nbins)
	for _, v := range xs {
		i := int((v - min) / w)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		counts[i]++
	}
	return counts, nil
}

// Run is Count observations equal to Value. Its JSON form is compact,
// for journals that persist runs by the thousand.
type Run struct {
	Value float64 `json:"v"`
	Count int     `json:"n"`
}

// CompactRuns sorts runs by value and merges runs of equal value,
// reusing rs's storage; it returns the ascending runs with distinct
// values. Runs of count zero are dropped.
func CompactRuns(rs []Run) []Run {
	slices.SortFunc(rs, func(a, b Run) int {
		switch {
		case a.Value < b.Value:
			return -1
		case a.Value > b.Value:
			return 1
		}
		return 0
	})
	out := rs[:0]
	for _, r := range rs {
		switch {
		case r.Count <= 0:
		case len(out) > 0 && out[len(out)-1].Value == r.Value:
			out[len(out)-1].Count += r.Count
		default:
			out = append(out, r)
		}
	}
	return out
}

// MergeRuns returns the union of two ascending lists of runs with
// distinct values, as one such list; counts of a value in both add.
func MergeRuns(a, b []Run) []Run {
	out := make([]Run, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].Value < b[0].Value:
			out, a = append(out, a[0]), a[1:]
		case b[0].Value < a[0].Value:
			out, b = append(out, b[0]), b[1:]
		default:
			out = append(out, Run{a[0].Value, a[0].Count + b[0].Count})
			a, b = a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// SummarizeRuns computes the Summary of the sample that repeats each
// run's Value Count times, bit for bit what Summarize returns for it:
// the values are summed one at a time in ascending order, and each
// quantile reads the same ranks. rs must be ascending with distinct
// values (CompactRuns, MergeRuns), so its memory grows with the number
// of distinct values, not of observations.
func SummarizeRuns(rs []Run) (Summary, error) {
	var n int
	var sum float64
	for _, r := range rs {
		n += r.Count
		for i := 0; i < r.Count; i++ {
			sum += r.Value
		}
	}
	if n == 0 {
		return Summary{}, ErrEmpty
	}
	// at returns the value of rank i (0-based) of the expanded sample.
	at := func(i int) float64 {
		for _, r := range rs {
			if i < r.Count {
				return r.Value
			}
			i -= r.Count
		}
		return rs[len(rs)-1].Value
	}
	// quantile repeats quantileSorted's arithmetic over ranks.
	quantile := func(p float64) float64 {
		h := p * float64(n-1)
		lo := int(math.Floor(h))
		if lo+1 >= n {
			return at(lo)
		}
		frac := h - float64(lo)
		return at(lo)*(1-frac) + at(lo+1)*frac
	}
	return Summary{
		N:      n,
		Mean:   sum / float64(n),
		Median: quantile(0.5),
		P25:    quantile(0.25),
		P75:    quantile(0.75),
		Min:    rs[0].Value,
		Max:    rs[len(rs)-1].Value,
	}, nil
}
