package core

import (
	"fmt"
	"math"
)

// ValidateKAnonymity verifies that every fingerprint in the published
// dataset hides at least k subscribers, that member lists are consistent,
// and that no subscriber appears in two groups. This is the privacy
// criterion of Sec. 2.4: each subscriber is indistinguishable from at
// least k-1 others because the whole group shares one published
// fingerprint.
func ValidateKAnonymity(d *Dataset, k int) error {
	seen := make(map[string]string) // member -> group ID
	for _, f := range d.Fingerprints {
		if f.Count < k {
			return fmt.Errorf("core: fingerprint %s hides %d < %d users", f.ID, f.Count, k)
		}
		if len(f.Members) != f.Count {
			return fmt.Errorf("core: fingerprint %s: count %d but %d members", f.ID, f.Count, len(f.Members))
		}
		for _, m := range f.Members {
			if g, dup := seen[m]; dup {
				return fmt.Errorf("core: subscriber %s in groups %s and %s", m, g, f.ID)
			}
			seen[m] = f.ID
		}
	}
	return nil
}

// TruthfulnessReport quantifies the record-level truthfulness principle
// (PPDP P2): every published sample must generalize locations actually
// visited — equivalently, every original sample must be covered by a
// published sample of its subscriber's group, unless it was suppressed.
type TruthfulnessReport struct {
	Covered    int // original samples covered by their group's published samples
	Suppressed int // original samples with no covering published sample (suppressed)
	MissingFP  int // original subscribers absent from the published dataset
}

// CheckTruthfulness compares an original dataset with its published
// anonymization. Subscribers are matched through the Members lists.
func CheckTruthfulness(original, published *Dataset) TruthfulnessReport {
	group := make(map[string]*Fingerprint)
	for _, f := range published.Fingerprints {
		for _, m := range f.Members {
			group[m] = f
		}
	}
	var rep TruthfulnessReport
	for _, of := range original.Fingerprints {
		// Original fingerprints carry one member each; pre-merged inputs
		// share samples, so each member's view is counted separately.
		for _, m := range of.Members {
			g, ok := group[m]
			if !ok {
				rep.MissingFP++
				continue
			}
			for _, s := range of.Samples {
				if coveredBy(s, g.Samples) {
					rep.Covered++
				} else {
					rep.Suppressed++
				}
			}
		}
	}
	return rep
}

func coveredBy(s Sample, published []Sample) bool {
	for _, p := range published {
		if p.Covers(s) {
			return true
		}
	}
	return false
}

// MatchingFingerprints implements the record linkage attack of Sec. 2.3
// under the strongest adversary: one who knows the target's complete
// original trajectory. It returns the fingerprints of the published
// dataset consistent with that knowledge, i.e. those whose samples cover
// every known sample. On raw data the match is typically unique (the
// uniqueness problem); on GLOVE output at least one group hiding >= k
// subscribers matches, defeating the attack.
func MatchingFingerprints(published *Dataset, known []Sample) []*Fingerprint {
	var out []*Fingerprint
	for _, f := range published.Fingerprints {
		all := true
		for _, s := range known {
			if !coveredBy(s, f.Samples) {
				all = false
				break
			}
		}
		if all {
			out = append(out, f)
		}
	}
	return out
}

// MatchCrowd returns the number of subscribers hidden across the
// fingerprints matching the known trajectory: the sum of their Counts,
// over every match, not the smallest one. 0 means no match (the
// trajectory was suppressed beyond recognition), and 1 means the
// knowledge pins a single subscriber's record. On a k-anonymous release
// every match hides at least k subscribers, so any match certifies a
// crowd of at least k.
func MatchCrowd(published *Dataset, known []Sample) int {
	var total int
	for _, f := range MatchingFingerprints(published, known) {
		total += f.Count
	}
	return total
}

// CoverIndex is a published dataset indexed for the record linkage
// attack: it stores each fingerprint's covering volume, so a probe skips
// a fingerprint that cannot cover a known sample without scanning its
// samples. Build it once per release and share it across probes; it is
// read-only and safe for concurrent use.
type CoverIndex struct {
	published *Dataset
	// boxes[i] spans fingerprint i's samples: the lowest X, Y, T and the
	// highest X+DX, Y+DY, T+DT, computed as Sample.Covers computes them.
	boxes []FingerprintBounds
}

// NewCoverIndex indexes a published dataset.
func NewCoverIndex(published *Dataset) *CoverIndex {
	boxes := make([]FingerprintBounds, published.Len())
	for i, f := range published.Fingerprints {
		b := FingerprintBounds{
			MinX: math.Inf(1), MaxX: math.Inf(-1),
			MinY: math.Inf(1), MaxY: math.Inf(-1),
			MinT: math.Inf(1), MaxT: math.Inf(-1),
		}
		// Plain comparisons skip a NaN field, which can never take part
		// in a cover; math.Min/Max would spread it over the whole box.
		for _, p := range f.Samples {
			if p.X < b.MinX {
				b.MinX = p.X
			}
			if hi := p.X + p.DX; hi > b.MaxX {
				b.MaxX = hi
			}
			if p.Y < b.MinY {
				b.MinY = p.Y
			}
			if hi := p.Y + p.DY; hi > b.MaxY {
				b.MaxY = hi
			}
			if p.T < b.MinT {
				b.MinT = p.T
			}
			if hi := p.T + p.DT; hi > b.MaxT {
				b.MaxT = hi
			}
		}
		boxes[i] = b
	}
	return &CoverIndex{published: published, boxes: boxes}
}

// Match returns, for the indexed dataset, how many fingerprints match
// the known trajectory (len(MatchingFingerprints(published, known)))
// and the crowd they hide (MatchCrowd(published, known)). A sample p of
// a fingerprint covers s only if p.X <= s.X+coverEps, and the box's
// lowest X is at most p.X; likewise for every other bound of
// Sample.Covers. So a box failing one of those comparisons holds no
// covering sample, and skipping the fingerprint changes no match.
func (x *CoverIndex) Match(known []Sample) (groups, crowd int) {
	for i, f := range x.published.Fingerprints {
		b := &x.boxes[i]
		all := true
		for _, s := range known {
			if !(b.MinX <= s.X+coverEps && b.MaxX >= s.X+s.DX-coverEps &&
				b.MinY <= s.Y+coverEps && b.MaxY >= s.Y+s.DY-coverEps &&
				b.MinT <= s.T+coverEps && b.MaxT >= s.T+s.DT-coverEps) ||
				!coveredBy(s, f.Samples) {
				all = false
				break
			}
		}
		if all {
			groups++
			crowd += f.Count
		}
	}
	return groups, crowd
}
