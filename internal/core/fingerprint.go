package core

import (
	"fmt"
	"sort"
)

// Fingerprint is the mobile fingerprint of one subscriber — or, after
// GLOVE merging, of a group of subscribers whose fingerprints have been
// made identical (Sec. 4.1). Samples are kept sorted by interval start
// time.
type Fingerprint struct {
	// ID is the pseudo-identifier of the subscriber, or a synthetic group
	// identifier after merging.
	ID string

	// Samples is the ordered sequence of spatiotemporal samples.
	Samples []Sample

	// Count is n_a of the paper: how many subscribers are hidden in this
	// fingerprint. Originals have Count 1.
	Count int

	// Members lists the pseudo-identifiers of all subscribers hidden in
	// this fingerprint, enabling k-anonymity validation and per-user
	// utility accounting. len(Members) == Count.
	Members []string
}

// NewFingerprint builds a single-subscriber fingerprint, sorting the
// samples by time.
func NewFingerprint(id string, samples []Sample) *Fingerprint {
	s := make([]Sample, len(samples))
	copy(s, samples)
	return OwnFingerprint(id, s)
}

// OwnFingerprint is NewFingerprint taking ownership of samples: they
// become the fingerprint's, so a builder pays no copy. They are sorted
// in place only when out of order; sorting ordered samples would leave
// them as they are.
func OwnFingerprint(id string, samples []Sample) *Fingerprint {
	for i := 1; i < len(samples); i++ {
		if sampleLess(samples[i], samples[i-1]) {
			sortSamples(samples)
			break
		}
	}
	return &Fingerprint{ID: id, Samples: samples, Count: 1, Members: []string{id}}
}

// sampleLess is the fingerprint sample order: by time, then position.
func sampleLess(a, b Sample) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

func sortSamples(s []Sample) {
	sort.Slice(s, func(i, j int) bool { return sampleLess(s[i], s[j]) })
}

// Len returns the number of samples (m_a of the paper).
func (f *Fingerprint) Len() int { return len(f.Samples) }

// Validate checks structural sanity of the fingerprint.
func (f *Fingerprint) Validate() error {
	if f.ID == "" {
		return fmt.Errorf("core: fingerprint with empty ID")
	}
	if f.Count < 1 {
		return fmt.Errorf("core: fingerprint %s has count %d < 1", f.ID, f.Count)
	}
	if len(f.Members) != f.Count {
		return fmt.Errorf("core: fingerprint %s: %d members but count %d", f.ID, len(f.Members), f.Count)
	}
	if len(f.Samples) == 0 {
		return fmt.Errorf("core: fingerprint %s has no samples", f.ID)
	}
	for i, s := range f.Samples {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("core: fingerprint %s sample %d: %w", f.ID, i, err)
		}
		if i > 0 && f.Samples[i-1].T > s.T {
			return fmt.Errorf("core: fingerprint %s samples not time-sorted at %d", f.ID, i)
		}
	}
	return nil
}

// Clone returns a deep copy of the fingerprint.
func (f *Fingerprint) Clone() *Fingerprint {
	s := make([]Sample, len(f.Samples))
	copy(s, f.Samples)
	m := make([]string, len(f.Members))
	copy(m, f.Members)
	return &Fingerprint{ID: f.ID, Samples: s, Count: f.Count, Members: m}
}

// TotalWeight returns the total number of original samples represented
// by this fingerprint's (possibly generalized) samples.
func (f *Fingerprint) TotalWeight() int {
	var w int
	for _, s := range f.Samples {
		w += s.Weight
	}
	return w
}

// Dataset is a movement micro-data database: a set of mobile
// fingerprints (Tab. 1 of the paper).
type Dataset struct {
	Fingerprints []*Fingerprint
}

// NewDataset wraps fingerprints into a Dataset without copying.
func NewDataset(fps []*Fingerprint) *Dataset {
	return &Dataset{Fingerprints: fps}
}

// Len returns the number of fingerprints (|M| of the paper).
func (d *Dataset) Len() int { return len(d.Fingerprints) }

// Users returns the total number of subscribers hidden in the dataset
// (the sum of fingerprint counts).
func (d *Dataset) Users() int {
	var n int
	for _, f := range d.Fingerprints {
		n += f.Count
	}
	return n
}

// TotalSamples returns the total number of published samples.
func (d *Dataset) TotalSamples() int {
	var n int
	for _, f := range d.Fingerprints {
		n += len(f.Samples)
	}
	return n
}

// Validate checks every fingerprint and ID uniqueness.
func (d *Dataset) Validate() error {
	seen := make(map[string]struct{}, len(d.Fingerprints))
	for _, f := range d.Fingerprints {
		if err := f.Validate(); err != nil {
			return err
		}
		if _, dup := seen[f.ID]; dup {
			return fmt.Errorf("core: duplicate fingerprint ID %q", f.ID)
		}
		seen[f.ID] = struct{}{}
	}
	return nil
}

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	fps := make([]*Fingerprint, len(d.Fingerprints))
	for i, f := range d.Fingerprints {
		fps[i] = f.Clone()
	}
	return &Dataset{Fingerprints: fps}
}
