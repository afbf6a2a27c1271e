// Attack: a record linkage attack under the paper's strongest adversary
// model — one who knows the target's complete original trajectory
// (quasi-identifier-blind anonymity, Sec. 2.3).
//
// On the raw (pseudonymized) dataset the attack pins almost every
// subscriber uniquely: pseudonyms do not help when trajectories
// themselves are unique (Sec. 1, "high uniqueness"). On the GLOVE'd
// dataset the same knowledge always matches a crowd of at least k.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)

	cfg := synth.SEN(100)
	cfg.Days = 7
	table, _, _, err := synth.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Replace identifiers with pseudonyms — the naive anonymization the
	// paper shows to be insufficient.
	table, err = table.Pseudonymize(0xD4D)
	if err != nil {
		log.Fatal(err)
	}
	dataset, err := table.BuildDataset()
	if err != nil {
		log.Fatal(err)
	}

	// The adversary knows the full trajectory of every target and counts
	// how many database records are consistent with that knowledge.
	attack := func(published *core.Dataset, label string) {
		unique, protected := 0, 0
		for _, target := range dataset.Fingerprints {
			crowd := core.MatchCrowd(published, target.Samples)
			switch {
			case crowd == 1:
				unique++
			case crowd >= 2:
				protected++
			}
		}
		fmt.Printf("%-22s uniquely re-linked: %3d / %d   hidden in a crowd: %3d\n",
			label, unique, dataset.Len(), protected)
	}

	fmt.Println("record linkage attack with full-trajectory knowledge")
	attack(dataset, "pseudonymized only:")

	for _, k := range []int{2, 5} {
		published, _, err := core.Glove(dataset, core.GloveOptions{K: k})
		if err != nil {
			log.Fatal(err)
		}
		attack(published, fmt.Sprintf("GLOVE k=%d:", k))

		// The crowd guarantee, per target.
		worst := dataset.Len() + 1
		for _, target := range dataset.Fingerprints {
			if c := core.MatchCrowd(published, target.Samples); c < worst {
				worst = c
			}
		}
		fmt.Printf("%-22s worst-case crowd size: %d (>= k = %d)\n",
			fmt.Sprintf("GLOVE k=%d:", k), worst, k)
	}
}
