package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// linkFP builds a single-subscriber fingerprint with `n` distinct point
// samples offset by `base`, so different subscribers never overlap.
func linkFP(id string, base float64, n int) *core.Fingerprint {
	samples := make([]core.Sample, n)
	for i := range samples {
		samples[i] = core.Sample{
			X: base + float64(i)*1000, DX: 100,
			Y: base, DY: 100,
			T: float64(i) * 10, DT: 1,
			Weight: 1,
		}
	}
	return core.NewFingerprint(id, samples)
}

// groupOf merges member fingerprints into one published group carrying
// the union of their samples (every member's sample is covered).
func groupOf(id string, members ...*core.Fingerprint) *core.Fingerprint {
	var samples []core.Sample
	var ids []string
	for _, m := range members {
		samples = append(samples, m.Samples...)
		ids = append(ids, m.Members...)
	}
	g := core.NewFingerprint(id, samples)
	g.Count = len(members)
	g.Members = ids
	return g
}

func TestCrossWindowLinkage(t *testing.T) {
	u1a, u2a, u3a := linkFP("u1", 0, 4), linkFP("u2", 1e5, 4), linkFP("u3", 2e5, 4)
	u1b, u2b, u4b := linkFP("u1", 3e5, 4), linkFP("u2", 4e5, 4), linkFP("u4", 5e5, 4)
	origA := core.NewDataset([]*core.Fingerprint{u1a, u2a, u3a})
	origB := core.NewDataset([]*core.Fingerprint{u1b, u2b, u4b})

	// Publishing the raw windows re-links every shared subscriber: each
	// probe pins one record in both windows.
	res, err := CrossWindowLinkage(
		[]*core.Dataset{origA, origB},
		[]*core.Dataset{origA, origB},
		2, 10, rand.New(rand.NewSource(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].Shared != 2 {
		t.Fatalf("pairs = %+v, want one pair sharing u1 and u2", res.Pairs)
	}
	if res.Probed != 2 || res.LinkedFraction != 1 {
		t.Errorf("raw windows: linked %d/%d (%.2f), want 2/2",
			res.Linked, res.Probed, res.LinkedFraction)
	}

	// A probe re-links when its samples match exactly one group in each
	// release, whatever crowd the group hides. With one group per
	// release every probe matches it, so both re-link.
	link := func(relA, relB *core.Dataset) LinkageResult {
		t.Helper()
		res, err := CrossWindowLinkage(
			[]*core.Dataset{origA, origB},
			[]*core.Dataset{relA, relB},
			2, 10, rand.New(rand.NewSource(1)), 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res = link(
		core.NewDataset([]*core.Fingerprint{groupOf("gA", u1a, u2a, u3a)}),
		core.NewDataset([]*core.Fingerprint{groupOf("gB", u1b, u2b, u4b)}))
	if res.Probed != 2 || res.Linked != 2 {
		t.Errorf("one group per release: linked %d/%d, want 2/2", res.Linked, res.Probed)
	}

	// k-anonymous releases whose groups each hold one shared subscriber:
	// every probe pins one 2-subscriber group in each release, so both
	// re-link. (Counting a probe only when its match hides a single
	// subscriber would report 0 here, as on any k-anonymous release.)
	xA, xB := linkFP("xA", 6e5, 4), linkFP("xB", 7e5, 4)
	relA := core.NewDataset([]*core.Fingerprint{groupOf("gA1", u1a, u3a), groupOf("gA2", u2a, xA)})
	relB := core.NewDataset([]*core.Fingerprint{groupOf("gB1", u1b, u4b), groupOf("gB2", u2b, xB)})
	res = link(relA, relB)
	if res.Linked != 2 || res.LinkedFraction != 1 {
		t.Errorf("one shared subscriber per group: linked %d/%d, want 2/2", res.Linked, res.Probed)
	}

	// Mixed case: release B publishes u2's window-B samples in two
	// groups (a twin u2' behaves exactly like u2), so u2's probe matches
	// both and stays unlinked while u1 re-links — exactly half.
	u2twin := linkFP("u2'", 4e5, 4)
	yB := linkFP("yB", 8e5, 4)
	relB = core.NewDataset([]*core.Fingerprint{
		groupOf("gB1", u1b, u4b), groupOf("gB2", u2b, xB), groupOf("gB3", u2twin, yB)})
	res = link(relA, relB)
	if res.Linked != 1 || res.LinkedFraction != 0.5 {
		t.Errorf("mixed windows: linked %d/%d (%.2f), want 1/2",
			res.Linked, res.Probed, res.LinkedFraction)
	}
}

func TestCrossWindowLinkageNoSharedSubscribers(t *testing.T) {
	origA := core.NewDataset([]*core.Fingerprint{linkFP("u1", 0, 3)})
	origB := core.NewDataset([]*core.Fingerprint{linkFP("u2", 1e5, 3)})
	res, err := CrossWindowLinkage(
		[]*core.Dataset{origA, origB},
		[]*core.Dataset{origA, origB},
		2, 5, rand.New(rand.NewSource(2)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probed != 0 || res.LinkedFraction != 0 {
		t.Errorf("disjoint windows probed %d, linked fraction %g", res.Probed, res.LinkedFraction)
	}
}

func TestCrossWindowLinkageArgs(t *testing.T) {
	d := core.NewDataset([]*core.Fingerprint{linkFP("u1", 0, 3)})
	one := []*core.Dataset{d}
	two := []*core.Dataset{d, d}
	rng := rand.New(rand.NewSource(3))
	if _, err := CrossWindowLinkage(one, two, 2, 5, rng, 0); err == nil {
		t.Error("mismatched window counts accepted")
	}
	if _, err := CrossWindowLinkage(one, one, 2, 5, rng, 0); err == nil {
		t.Error("single release accepted")
	}
	if _, err := CrossWindowLinkage(two, two, 0, 5, rng, 0); err == nil {
		t.Error("known = 0 accepted")
	}
	if _, err := CrossWindowLinkage(two, two, 2, 0, rng, 0); err == nil {
		t.Error("probes = 0 accepted")
	}
}
