package core

import (
	"fmt"
	"math"
	"testing"
)

// checkKGapFilter runs the thresholded k-gap pass at ceiling over the
// candidate filter and over every pair, and reports the first
// difference in Nearest, Efforts, KGap (bit for bit) or the anonymous
// fraction. applied reports whether the filter ran at all.
func checkKGapFilter(p Params, d *Dataset, k, workers int, ceiling float64) (applied bool, err error) {
	_, _, applied = kGapCandidates(p, d, ceiling, workers)
	got, _ := kGapThresholded(p, d, k, workers, ceiling)
	want := kGapScan(p, d, k, workers, true, ceiling)
	anonymous := func(rs []KGapResult) int {
		var n int
		for _, r := range rs {
			if len(r.Nearest) == k-1 && r.KGap <= AnonymousKGap {
				n++
			}
		}
		return n
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Index != w.Index || math.Float64bits(g.KGap) != math.Float64bits(w.KGap) ||
			fmt.Sprint(g.Nearest) != fmt.Sprint(w.Nearest) || len(g.Efforts) != len(w.Efforts) {
			return applied, fmt.Errorf("fingerprint %d: filtered %+v, full scan %+v", i, g, w)
		}
		for m := range w.Efforts {
			if math.Float64bits(g.Efforts[m]) != math.Float64bits(w.Efforts[m]) {
				return applied, fmt.Errorf("fingerprint %d: filtered %+v, full scan %+v", i, g, w)
			}
		}
	}
	if a, b := anonymous(got), anonymous(want); a != b {
		return applied, fmt.Errorf("anonymous count: filtered %d, full scan %d", a, b)
	}
	return applied, nil
}

// FuzzKGapAnonymousFraction pins the thresholded k-gap pass's candidate
// filter against the full thresholded scan on hostile datasets: two to
// eight fingerprints of unequal lengths (up to 300 samples when tiled),
// a duplicated user shifted by at most 1e-6 along x, y or t (0 for an
// exact copy), subscriber counts above one, a zero spatial or temporal
// weight, and ceilings from gloved's k·AnonymousKGap up to 1e-5.
//
// The seed corpus runs under plain go test; fuzz with
// go test -run '^$' -fuzz FuzzKGapAnonymousFraction -fuzztime 60s ./internal/core/
func FuzzKGapAnonymousFraction(f *testing.F) {
	near := Sample{X: 1000, DX: 400, Y: 2000, DY: 400, T: 600, DT: 10}
	shifted := near
	shifted.X += 800
	shifted.T += 45
	far := Sample{X: 300000, DX: 40, Y: -300000, DY: 40, T: 60000, DT: 2}
	point := Sample{X: 500, Y: 500, T: 100}
	for _, seed := range []struct {
		data              []byte
		lens              []byte
		dup, k, mode, cei uint8
		shift             float64
		tile              bool
	}{
		// An exact duplicate among unequal lengths.
		{fuzzEncode(near, shifted, far, near, point, shifted, far), []byte{2, 3, 1, 1}, 1, 2, 0, 0, 0, false},
		// Coordinates within 1e-9 of a duplicated user.
		{fuzzEncode(near, shifted, point, near), []byte{2, 2}, 0, 2, 0, 0, 1e-9, false},
		// Zero spatial weight: only time is hashed.
		{fuzzEncode(near, near, shifted, point, far), []byte{1, 1, 2, 1}, 2, 3, 1, 1, 3e-10, false},
		// Zero temporal weight: only space is hashed.
		{fuzzEncode(point, point, near, shifted), []byte{1, 2, 1}, 0, 2, 2, 2, -5e-10, false},
		// Unnormalized weights, identical fingerprints, higher k.
		{fuzzEncode(near, near, near, near), []byte{1, 1, 1, 1, 1}, 4, 4, 3, 3, 0, false},
		// A tiled long fingerprint against short ones.
		{fuzzEncode(near, shifted, point, far, point), []byte{2, 2, 1}, 0, 2, 0, 1, 2e-9, true},
		{nil, nil, 0, 2, 0, 0, 0, false},
	} {
		f.Add(seed.data, seed.lens, seed.dup, seed.k, seed.mode, seed.cei, seed.shift, seed.tile)
	}
	f.Fuzz(func(t *testing.T, data, lens []byte, dup, k, mode, cei uint8, shift float64, tile bool) {
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return
		}
		n := 2 + len(lens)%6
		var fps []*Fingerprint
		from := 0
		for i := 0; i < n; i++ {
			m := 1
			if i < len(lens) {
				m = 1 + int(lens[i]%6)
			}
			fps = append(fps, fuzzFingerprint(fmt.Sprintf("f%d", i), data, from, m, uint8(i/3), tile && i == 0))
			from += m
		}
		// A duplicated user, nudged along one axis by at most 1e-6.
		g := fps[int(dup)%n].Clone()
		g.ID = "dup"
		g.Members = make([]string, g.Count)
		shift = math.Mod(shift, 1e-6)
		for s := range g.Samples {
			switch dup % 3 {
			case 0:
				g.Samples[s].X += shift
			case 1:
				g.Samples[s].Y += shift
			default:
				g.Samples[s].T += shift
			}
		}
		sortSamples(g.Samples)
		d := NewDataset(append(fps, g))

		p := DefaultParams()
		switch mode % 4 {
		case 1:
			p.WSpatial = 0
		case 2:
			p.WTemporal = 0
		case 3:
			p.WSpatial, p.WTemporal = 30, 20
		}
		kk := 2 + int(k%3)
		if kk > d.Len() {
			kk = d.Len()
		}
		ceiling := [...]float64{float64(kk) * AnonymousKGap, 1e-9, 1e-7, 1e-5}[cei%4]
		if _, err := checkKGapFilter(p, d, kk, 2, ceiling); err != nil {
			t.Fatalf("k=%d ceiling=%g params=%+v: %v", kk, ceiling, p, err)
		}
	})
}
