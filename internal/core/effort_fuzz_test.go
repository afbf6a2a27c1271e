package core

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSampleBytes is the encoded size of one sample in FuzzEffortBelow's
// input: x, y (int16, ×10 m), t (uint16 minutes), then dx, dy (×40 m)
// and dt (×2 min) as one byte each.
const fuzzSampleBytes = 9

// fuzzSample decodes sample k of data; bytes past the end read as zero,
// so a short input still yields fingerprints of any length.
func fuzzSample(data []byte, k int) Sample {
	var b [fuzzSampleBytes]byte
	if off := k * fuzzSampleBytes; off < len(data) {
		copy(b[:], data[off:])
	}
	return Sample{
		X:      float64(int16(binary.LittleEndian.Uint16(b[0:]))) * 10,
		Y:      float64(int16(binary.LittleEndian.Uint16(b[2:]))) * 10,
		T:      float64(binary.LittleEndian.Uint16(b[4:])),
		DX:     float64(b[6]) * 40,
		DY:     float64(b[7]) * 40,
		DT:     float64(b[8]) * 2,
		Weight: 1,
	}
}

// fuzzEncode is fuzzSample's inverse for the seed corpus.
func fuzzEncode(samples ...Sample) []byte {
	var out []byte
	for _, s := range samples {
		var b [fuzzSampleBytes]byte
		binary.LittleEndian.PutUint16(b[0:], uint16(int16(s.X/10)))
		binary.LittleEndian.PutUint16(b[2:], uint16(int16(s.Y/10)))
		binary.LittleEndian.PutUint16(b[4:], uint16(s.T))
		b[6], b[7], b[8] = byte(s.DX/40), byte(s.DY/40), byte(s.DT/2)
		out = append(out, b[:]...)
	}
	return out
}

// fuzzFingerprint builds a fingerprint of n samples starting at sample
// `from` of data. With tile set it repeats them, a day later each round,
// up to 300 samples: past the per-sample remainder bound's buffer, so
// the whole-fingerprint bound path is fuzzed too.
func fuzzFingerprint(id string, data []byte, from, n int, count uint8, tile bool) *Fingerprint {
	m := n
	if tile {
		m = 300
	}
	samples := make([]Sample, m)
	for k := range samples {
		samples[k] = fuzzSample(data, from+k%n)
		samples[k].T += float64(k/n) * 1440
	}
	f := NewFingerprint(id, samples)
	f.Count = 1 + int(count%8)
	f.Members = make([]string, f.Count)
	return f
}

// FuzzEffortBelow pins the pruned effort kernel against the naive Eq. 10
// evaluation on hostile fingerprints: duplicated samples, zero extents,
// saturated pairs, single samples, equal lengths, and thresholds at,
// just below and just above the true effort (checked on every input,
// since thresholds in the index are other pairs' computed efforts).
//
//   - The reported effort is finite and in [0, WSpatial+WTemporal].
//   - Reported below: the effort is FingerprintEffort bit for bit, and
//     at most the threshold.
//   - Reported above: FingerprintEffort exceeds the threshold, and the
//     reported value is a lower bound on it. The dense index stores that
//     value and breaks effort ties by slot, so the bound must not exceed
//     the true effort even by an ulp.
//
// The seed corpus runs under plain go test; fuzz with
// go test -run '^$' -fuzz FuzzEffortBelow -fuzztime 60s ./internal/core/
func FuzzEffortBelow(f *testing.F) {
	near := Sample{X: 1000, DX: 400, Y: 2000, DY: 400, T: 600, DT: 10}
	shifted := near
	shifted.X += 800
	shifted.T += 45
	far := Sample{X: 300000, DX: 40, Y: -300000, DY: 40, T: 60000, DT: 2}
	point := Sample{X: 500, Y: 500, T: 100}
	for _, seed := range []struct {
		data   []byte
		la, lb uint8
		ca, cb uint8
		thr    float64
		tile   bool
	}{
		// Equal lengths: the symmetric two-direction average.
		{fuzzEncode(near, shifted, far, near, point, shifted), 2, 2, 0, 2, 0.05, false},
		// Saturated: every sample pair costs exactly 1.0.
		{fuzzEncode(point, far), 0, 0, 0, 0, 1, false},
		// Single samples, overlapping.
		{fuzzEncode(near, shifted), 0, 0, 3, 1, 0.01, false},
		// Zero extents and duplicated samples.
		{fuzzEncode(point, point, point, point, point), 2, 1, 1, 1, 0, false},
		// Unequal lengths with a threshold that prunes mid-scan.
		{fuzzEncode(near, shifted, point, far, near, near, shifted), 4, 2, 0, 5, 0.2, false},
		// A long averaged side past the stack-buffer bound.
		{fuzzEncode(near, shifted, point, far, point), 2, 2, 1, 1, 0.3, true},
		{nil, 5, 7, 0, 0, math.Inf(1), false},
	} {
		f.Add(seed.data, seed.la, seed.lb, seed.ca, seed.cb, seed.thr, seed.tile)
	}
	p := DefaultParams()
	f.Fuzz(func(t *testing.T, data []byte, la, lb, ca, cb uint8, thr float64, tile bool) {
		if math.IsNaN(thr) {
			return
		}
		na, nb := 1+int(la%24), 1+int(lb%24)
		a := fuzzFingerprint("a", data, 0, na, ca, tile)
		b := fuzzFingerprint("b", data, na, nb, cb, false)
		want := p.FingerprintEffort(a, b)
		for _, threshold := range []float64{thr, want, math.Nextafter(want, math.Inf(-1)), math.Nextafter(want, math.Inf(1))} {
			for _, pair := range [2][2]*Fingerprint{{a, b}, {b, a}} {
				got, below := p.FingerprintEffortBelow(pair[0], pair[1], threshold)
				if math.IsNaN(got) || got < 0 || got > p.WSpatial+p.WTemporal {
					t.Fatalf("thr=%v: effort %v outside [0, %v]", threshold, got, p.WSpatial+p.WTemporal)
				}
				if below {
					if got != want || got > threshold {
						t.Fatalf("thr=%v: below with %v, naive effort %v", threshold, got, want)
					}
					continue
				}
				if want <= threshold {
					t.Fatalf("thr=%v: pruned, but naive effort %v is not above it", threshold, want)
				}
				if got > want {
					t.Fatalf("thr=%v: pruned with bound %v above naive effort %v", threshold, got, want)
				}
			}
		}
	})
}
