package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/geo"
)

// quantile is the q-quantile of xs with linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// perJob collects one value per job that finished with valid releases.
func (p *passResult) perJob(f func(*jobRun) float64) []float64 {
	var out []float64
	for _, jr := range p.jobs {
		if jr.ok {
			out = append(out, f(jr))
		}
	}
	return out
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// endToEndMetrics are the numbers a user of gloved sees, from an
// untraced pass.
func endToEndMetrics(p *passResult) map[string]metric {
	posM, timeMin := p.accuracyMedians()
	return map[string]metric{
		"setup_s":          {median(p.setup), "s"},
		"release_s":        {median(p.perJob(func(j *jobRun) float64 { return seconds(j.release) })), "s"},
		"job_s":            {median(p.perJob(func(j *jobRun) float64 { return seconds(j.jobDur) })), "s"},
		"commit_ms_p50":    {p.commitMS.quantile(0.5), "ms"},
		"commit_ms_p90":    {p.commitMS.quantile(0.9), "ms"},
		"append_ms_p50":    {p.appendMS.quantile(0.5), "ms"},
		"append_ms_p90":    {p.appendMS.quantile(0.9), "ms"},
		"pos_err_m_p50":    {posM, "m"},
		"time_err_min_p50": {timeMin, "min"},
		"peak_rss_mb":      {p.peakRSS, "MiB"},
	}
}

// accuracyMedians are the median spatial and temporal extents of every
// published sample of the pass (the paper's Fig. 7 measures). Spatial
// extents are whole grid cells, so their median is interpolated within
// its cell (see gridMedian); metrics.Summarize gives the plain one.
func (p *passResult) accuracyMedians() (posM, timeMin float64) {
	sum, err := p.accuracy.Summarize()
	if err != nil {
		return 0, 0 // no release validated; the failures already say so
	}
	return gridMedian(p.accuracy.PositionMeters, geo.GridPitchMeters), sum.MedianTimeMin
}

// gridMedian is the median of values that lie on a grid of the given
// step, interpolated within the run of ties that holds it (the median
// of grouped data). The plain median of such values moves only in
// whole steps, hiding any smaller shift of the distribution; this one
// equals it when every value ties.
func gridMedian(xs []float64, step float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v := s[len(s)/2]
	lo := sort.SearchFloat64s(s, v)
	hi := sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v - step/2 + step*(float64(len(s))/2-float64(lo))/float64(hi-lo)
}

// printSummary writes the sample counts behind the percentiles.
func (p *passResult) printSummary(out io.Writer) {
	fmt.Fprintf(out, "# samples jobs=%d releases=%d commit=%d append=%d setup=%d published_samples=%d\n",
		len(p.jobs), len(p.releases), len(p.commitMS.pooled()), len(p.appendMS.pooled()), len(p.setup), len(p.accuracy.PositionMeters))
	for _, d := range []struct {
		name string
		xs   []float64
	}{{"commit_ms", p.commitMS.pooled()}, {"append_ms", p.appendMS.pooled()}} {
		fmt.Fprintf(out, "# dist %s p10=%.2f p25=%.2f p50=%.2f p75=%.2f p90=%.2f max=%.2f\n", d.name,
			quantile(d.xs, 0.1), quantile(d.xs, 0.25), quantile(d.xs, 0.5), quantile(d.xs, 0.75), quantile(d.xs, 0.9), quantile(d.xs, 1))
	}
	fmt.Fprintf(out, "# job_s per job:")
	for _, jr := range p.jobs {
		fmt.Fprintf(out, " %.3f", jr.jobDur.Seconds())
	}
	fmt.Fprintln(out)
	if len(p.genLateMS) > 0 {
		fmt.Fprintf(out, "# open loop: generator late by at most %.3f ms over %d appends\n",
			quantile(p.genLateMS, 1), len(p.genLateMS))
	}
}
