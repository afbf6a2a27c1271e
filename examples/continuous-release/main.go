// Continuous-release: the operator workflow the windowed pipeline was
// built for — publishing a growing CDR feed as a sequence of
// time-windowed, independently k-anonymous releases, and measuring the
// risk that single-snapshot anonymization cannot see: an adversary who
// re-links a target ACROSS consecutive releases. The motivating attacks
// of the paper's Sec. 1 (Zang & Bolot's top locations, de Montjoye et
// al.'s spatiotemporal points) get stronger with every release an
// operator publishes; this example quantifies how much of that
// cross-release linkability GLOVE removes.
//
//  1. simulate a 6-day operator feed;
//  2. pseudonymize and screen it (the usual, insufficient, first steps);
//  3. partition into 48 h release windows;
//  4. GLOVE-anonymize every window independently (each release is
//     k-anonymous on its own);
//  5. validate and publish one CSV per window;
//  6. compare cross-window linkage of the raw feed vs the releases.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("continuous: ")

	// 1. The feed: six days of synthetic country-scale traffic.
	cfg := synth.CIV(120)
	cfg.Days = 6
	raw, _, _, err := synth.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("feed            %6d records, %d subscribers over %d days\n",
		len(raw.Records), raw.Users(), cfg.Days)

	// 2. Pseudonymize + screen, as any release pipeline must.
	pseudo, err := raw.Pseudonymize(2015)
	if err != nil {
		log.Fatal(err)
	}
	screened := pseudo.FilterMinRate(1)

	// 3. Partition into 48 h release windows.
	const windowHours = 48
	wins, err := screened.SplitByWindow(windowHours * time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	originals := make([]*core.Dataset, len(wins))
	for i, w := range wins {
		if originals[i], err = w.Table.BuildDataset(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("windows         %6d releases of %d h each\n", len(wins), windowHours)

	// 4+5. Anonymize each window independently — the planner picks
	//      each window's strategy from its size — then validate and
	//      publish its release. The releases go to a temporary directory
	//      the example removes before it ends, on its error paths too
	//      (log.Fatal skips deferred calls).
	const k = 2
	dir, err := os.MkdirTemp("", "glove-continuous-")
	if err != nil {
		log.Fatal(err)
	}
	published, err := publish(dir, wins, originals, k)
	os.RemoveAll(dir)
	if err != nil {
		log.Fatal(err)
	}

	// 6. The continuous-publication risk: how many subscribers can a
	//    partial-knowledge adversary re-link across consecutive
	//    releases? Raw feed first (the upper bound), then the GLOVE
	//    releases.
	const known, probes = 4, 200
	rawLink, err := analysis.CrossWindowLinkage(originals, originals, known, probes,
		rand.New(rand.NewSource(1)), 0)
	if err != nil {
		log.Fatal(err)
	}
	gloveLink, err := analysis.CrossWindowLinkage(originals, published, known, probes,
		rand.New(rand.NewSource(1)), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cross-window linkage (adversary knows", known, "samples per window):")
	fmt.Printf("  raw releases         %s\n", rawLink)
	fmt.Printf("  GLOVE releases       %s\n", gloveLink)
	if gloveLink.LinkedFraction > rawLink.LinkedFraction {
		log.Fatal("anonymized releases leak more than raw ones — impossible")
	}
}

// publish anonymizes every window, validates its release and writes it
// to dir as one CSV per window.
func publish(dir string, wins []cdr.Window, originals []*core.Dataset, k int) ([]*core.Dataset, error) {
	opt := core.AnonymizeOptions{Glove: core.GloveOptions{K: k}}
	published := make([]*core.Dataset, len(wins))
	for i, original := range originals {
		plan, err := core.PlanFor(original.Len(), opt)
		if err != nil {
			return nil, err
		}
		out, stats, err := core.RunPlan(context.Background(), original, opt, plan)
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", wins[i].Index, err)
		}
		if err := core.ValidateKAnonymity(out, k); err != nil {
			return nil, fmt.Errorf("RELEASE BLOCKED: window %d: %w", wins[i].Index, err)
		}
		published[i] = out
		path := filepath.Join(dir, fmt.Sprintf("release-w%d.csv", wins[i].Index))
		if err := writeRelease(path, out); err != nil {
			return nil, err
		}
		fmt.Printf("window %d        %6d users -> %4d groups (%4d merges, plan %s/%s) -> %s\n",
			wins[i].Index, original.Len(), out.Len(), stats.Merges,
			plan.Strategy, plan.Index, filepath.Base(path))
	}
	return published, nil
}

// writeRelease writes one release CSV to path.
func writeRelease(path string, out *core.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cdr.WriteAnonymizedCSV(f, out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
