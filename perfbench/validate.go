package main

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cdr"
	"repro/internal/core"
)

// csvSlack is the precision of the release CSV: coordinates and times
// are printed with one decimal, so a decoded box may sit up to one unit
// of that digit inside the box gloved computed.
const csvSlack = 0.1

// validateRelease parses a downloaded release and checks it against the
// generated fingerprints it must hide: every group hides at least k
// subscribers, the groups hide exactly the input's subscribers, and each
// subscriber can be placed in a group whose samples cover all of its
// own (truthfulness, to the CSV's precision). The release carries no
// identities, so subscribers are placed by a capacity-respecting
// matching of originals to covering groups before core.CheckTruthfulness
// runs on the result.
func validateRelease(raw []byte, orig *core.Dataset, k int) (*core.Dataset, error) {
	rel, err := cdr.ReadAnonymizedCSV(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if err := core.ValidateKAnonymity(rel, k); err != nil {
		return nil, err
	}
	if rel.Users() != orig.Len() {
		return nil, fmt.Errorf("release hides %d subscribers, input has %d", rel.Users(), orig.Len())
	}
	widened := widen(rel)
	if err := placeSubscribers(widened, orig); err != nil {
		return nil, err
	}
	rep := core.CheckTruthfulness(orig, widened)
	if rep.MissingFP > 0 || rep.Suppressed > 0 {
		return nil, fmt.Errorf("untruthful release: %d subscribers missing, %d samples uncovered", rep.MissingFP, rep.Suppressed)
	}
	return rel, nil
}

// widen copies a decoded release with every box grown by csvSlack on
// each side, so it covers whatever the printed box rounded away.
func widen(rel *core.Dataset) *core.Dataset {
	fps := make([]*core.Fingerprint, len(rel.Fingerprints))
	for i, f := range rel.Fingerprints {
		samples := make([]core.Sample, len(f.Samples))
		for j, s := range f.Samples {
			s.X, s.DX = s.X-csvSlack, s.DX+2*csvSlack
			s.Y, s.DY = s.Y-csvSlack, s.DY+2*csvSlack
			s.T, s.DT = s.T-csvSlack, s.DT+2*csvSlack
			samples[j] = s
		}
		fps[i] = &core.Fingerprint{ID: f.ID, Samples: samples, Count: f.Count}
	}
	return core.NewDataset(fps)
}

// box is the bounding box of a fingerprint's samples.
type box struct{ x0, x1, y0, y1, t0, t1 float64 }

func boundingBox(f *core.Fingerprint) box {
	b := box{x0: f.Samples[0].X, y0: f.Samples[0].Y, t0: f.Samples[0].T}
	b.x1, b.y1, b.t1 = b.x0, b.y0, b.t0
	for _, s := range f.Samples {
		b.x0, b.x1 = min(b.x0, s.X), max(b.x1, s.X+s.DX)
		b.y0, b.y1 = min(b.y0, s.Y), max(b.y1, s.Y+s.DY)
		b.t0, b.t1 = min(b.t0, s.T), max(b.t1, s.T+s.DT)
	}
	return b
}

func (b box) contains(o box) bool {
	return b.x0 <= o.x0 && o.x1 <= b.x1 && b.y0 <= o.y0 && o.y1 <= b.y1 && b.t0 <= o.t0 && o.t1 <= b.t1
}

// coversAll reports whether every sample of f is covered by one of g's
// samples, the test core.CheckTruthfulness applies.
func coversAll(g, f *core.Fingerprint) bool {
	for _, s := range f.Samples {
		if !slices.ContainsFunc(g.Samples, func(p core.Sample) bool { return p.Covers(s) }) {
			return false
		}
	}
	return true
}

// placeSubscribers sets each group's Members to the original
// subscribers it hides: a maximum bipartite matching (augmenting paths)
// of originals to the groups covering them, each group taking exactly
// its Count. It fails when some subscriber fits no group.
func placeSubscribers(rel, orig *core.Dataset) error {
	groups := rel.Fingerprints
	gbox := make([]box, len(groups))
	for g, f := range groups {
		if len(f.Samples) == 0 {
			return fmt.Errorf("group %s publishes no samples", f.ID)
		}
		gbox[g] = boundingBox(f)
	}
	cands := make([][]int, orig.Len())
	for i, f := range orig.Fingerprints {
		fb := boundingBox(f)
		for g, gf := range groups {
			if gbox[g].contains(fb) && coversAll(gf, f) {
				cands[i] = append(cands[i], g)
			}
		}
		if len(cands[i]) == 0 {
			return fmt.Errorf("no published group covers subscriber %s", f.ID)
		}
	}

	owner := make([][]int, len(groups)) // originals placed in each group
	seen := make([]int, len(groups))    // visit stamp per augmenting search
	stamp := 0
	var augment func(i int) bool
	augment = func(i int) bool {
		for _, g := range cands[i] {
			if seen[g] == stamp {
				continue
			}
			seen[g] = stamp
			if len(owner[g]) < groups[g].Count {
				owner[g] = append(owner[g], i)
				return true
			}
			for s, other := range owner[g] {
				if augment(other) {
					owner[g][s] = i
					return true
				}
			}
		}
		return false
	}
	// Most constrained first: most subscribers have exactly one
	// covering group, so few searches ever need to augment.
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(cands[order[a]]) < len(cands[order[b]]) })
	for _, i := range order {
		stamp++
		if !augment(i) {
			return fmt.Errorf("subscriber %s fits no group with room left", orig.Fingerprints[i].ID)
		}
	}
	for g, f := range groups {
		f.Members = make([]string, 0, len(owner[g]))
		for _, i := range owner[g] {
			f.Members = append(f.Members, orig.Fingerprints[i].ID)
		}
	}
	return nil
}
