// Package metrics quantifies the utility of anonymized movement
// micro-data, producing the measurements behind the paper's evaluation:
// the spatial and temporal accuracy CDFs of Figs. 7, 8, 10 and 11, and
// the error/accounting rows of Table 2.
//
// Accuracy of a published sample is its generalized extent: a sample
// spanning a 2 km box and a 90 min interval locates its subscriber with
// 2 km / 90 min precision. Per-sample statistics are weighted by the
// number of original samples each published sample stands for, so CDFs
// are over original samples, matching the paper's per-sample plots.
package metrics

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/stats"
)

// Accuracy is the per-original-sample accuracy distribution of a
// published dataset.
type Accuracy struct {
	// PositionMeters and TimeMinutes hold one entry per original sample
	// (published samples are expanded by weight).
	PositionMeters []float64
	TimeMinutes    []float64
}

// Measure computes the accuracy distributions of a published dataset.
func Measure(d *core.Dataset) *Accuracy {
	acc := &Accuracy{}
	for _, f := range d.Fingerprints {
		for _, s := range f.Samples {
			for w := 0; w < s.Weight; w++ {
				acc.PositionMeters = append(acc.PositionMeters, s.SpatialSpan())
				acc.TimeMinutes = append(acc.TimeMinutes, s.TemporalSpan())
			}
		}
	}
	return acc
}

// PositionCDF returns the empirical CDF of position accuracy.
func (a *Accuracy) PositionCDF() (*stats.ECDF, error) {
	return stats.NewECDF(a.PositionMeters)
}

// TimeCDF returns the empirical CDF of time accuracy.
func (a *Accuracy) TimeCDF() (*stats.ECDF, error) {
	return stats.NewECDF(a.TimeMinutes)
}

// Summary condenses an accuracy measurement into the row format of
// Figs. 9-11 and Table 2.
type Summary struct {
	Samples         int
	MeanPositionM   float64
	MedianPositionM float64
	P25PositionM    float64
	P75PositionM    float64
	MeanTimeMin     float64
	MedianTimeMin   float64
	P25TimeMin      float64
	P75TimeMin      float64
}

// Summarize computes the summary of an accuracy measurement.
func (a *Accuracy) Summarize() (Summary, error) {
	ps, err := stats.Summarize(a.PositionMeters)
	if err != nil {
		return Summary{}, fmt.Errorf("metrics: position: %w", err)
	}
	ts, err := stats.Summarize(a.TimeMinutes)
	if err != nil {
		return Summary{}, fmt.Errorf("metrics: time: %w", err)
	}
	return summaryOf(ps, ts), nil
}

// summaryOf assembles a Summary from the position and time statistics.
func summaryOf(ps, ts stats.Summary) Summary {
	return Summary{
		Samples:         ps.N,
		MeanPositionM:   ps.Mean,
		MedianPositionM: ps.Median,
		P25PositionM:    ps.P25,
		P75PositionM:    ps.P75,
		MeanTimeMin:     ts.Mean,
		MedianTimeMin:   ts.Median,
		P25TimeMin:      ts.P25,
		P75TimeMin:      ts.P75,
	}
}

// AccuracyRuns is the accuracy distributions of one or more published
// releases held as ascending (value, multiplicity) runs: what Accuracy
// holds expanded per original sample, in memory that grows with the
// number of distinct extents instead. Releases fold into it one at a
// time, and its Summarize equals Measure(concatenation).Summarize() bit
// for bit, so a run can report the accuracy of every release it
// committed without keeping any of them.
type AccuracyRuns struct {
	PositionMeters []stats.Run `json:"position_m"`
	TimeMinutes    []stats.Run `json:"time_min"`
}

// MeasureRuns computes the accuracy runs of a published dataset: each
// published sample contributes its extents with its weight.
func MeasureRuns(d *core.Dataset) AccuracyRuns {
	n := d.TotalSamples()
	pos, tm := make([]stats.Run, 0, n), make([]stats.Run, 0, n)
	for _, f := range d.Fingerprints {
		for _, s := range f.Samples {
			pos = append(pos, stats.Run{Value: s.SpatialSpan(), Count: s.Weight})
			tm = append(tm, stats.Run{Value: s.TemporalSpan(), Count: s.Weight})
		}
	}
	return AccuracyRuns{
		PositionMeters: slices.Clip(stats.CompactRuns(pos)),
		TimeMinutes:    slices.Clip(stats.CompactRuns(tm)),
	}
}

// Fold adds another measurement's runs to a.
func (a *AccuracyRuns) Fold(b AccuracyRuns) {
	a.PositionMeters = stats.MergeRuns(a.PositionMeters, b.PositionMeters)
	a.TimeMinutes = stats.MergeRuns(a.TimeMinutes, b.TimeMinutes)
}

// Summarize computes the summary of the folded measurements, bit for
// bit Accuracy.Summarize of their expansion.
func (a AccuracyRuns) Summarize() (Summary, error) {
	ps, err := stats.SummarizeRuns(a.PositionMeters)
	if err != nil {
		return Summary{}, fmt.Errorf("metrics: position: %w", err)
	}
	ts, err := stats.SummarizeRuns(a.TimeMinutes)
	if err != nil {
		return Summary{}, fmt.Errorf("metrics: time: %w", err)
	}
	return summaryOf(ps, ts), nil
}

// Table2Row is one algorithm/dataset/k cell group of the paper's
// Table 2.
type Table2Row struct {
	Algorithm string
	Dataset   string
	K         int

	DiscardedFingerprints    int
	DiscardedFingerprintsPct float64
	CreatedSamples           int
	CreatedSamplesPct        float64
	DeletedSamples           int
	DeletedSamplesPct        float64
	MeanPositionErrorM       float64
	MeanTimeErrorMin         float64
}

func (r Table2Row) String() string {
	return fmt.Sprintf(
		"%-8s %-8s k=%d  discardedFP=%d (%.1f%%)  created=%d (%.1f%%)  deleted=%d (%.1f%%)  posErr=%.1fm  timeErr=%.1fmin",
		r.Algorithm, r.Dataset, r.K,
		r.DiscardedFingerprints, r.DiscardedFingerprintsPct,
		r.CreatedSamples, r.CreatedSamplesPct,
		r.DeletedSamples, r.DeletedSamplesPct,
		r.MeanPositionErrorM, r.MeanTimeErrorMin)
}

// GloveRow assembles a Table2Row from a GLOVE run: GLOVE never creates
// samples and never discards fingerprints (unless suppression removed
// all of a group's samples); deleted samples are the suppressed ones;
// errors are the mean generalized extents of the published data.
func GloveRow(dataset string, k int, original *core.Dataset, published *core.Dataset, st *core.GloveStats) (Table2Row, error) {
	acc := Measure(published)
	sum, err := acc.Summarize()
	if err != nil {
		return Table2Row{}, err
	}
	inSamples := st.InputSamples
	inFPs := st.InputFingerprints
	row := Table2Row{
		Algorithm: "GLOVE",
		Dataset:   dataset,
		K:         k,

		DiscardedFingerprints:    st.DiscardedFingerprints,
		DiscardedFingerprintsPct: pct(st.DiscardedFingerprints, inFPs),
		CreatedSamples:           0,
		CreatedSamplesPct:        0,
		DeletedSamples:           st.SuppressedSamples,
		DeletedSamplesPct:        pct(st.SuppressedSamples, inSamples),
		MeanPositionErrorM:       sum.MeanPositionM,
		MeanTimeErrorMin:         sum.MeanTimeMin,
	}
	return row, nil
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// ValidatePublished checks the published dataset against the privacy and
// truthfulness requirements and returns a human-readable error when any
// is violated. It is the final gate of the release pipeline example.
func ValidatePublished(original, published *core.Dataset, k int) error {
	if err := published.Validate(); err != nil {
		return fmt.Errorf("metrics: structural: %w", err)
	}
	if err := core.ValidateKAnonymity(published, k); err != nil {
		return fmt.Errorf("metrics: privacy: %w", err)
	}
	rep := core.CheckTruthfulness(original, published)
	if rep.MissingFP > 0 {
		return fmt.Errorf("metrics: %d subscribers missing from publication", rep.MissingFP)
	}
	return nil
}
