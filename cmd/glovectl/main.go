// Command glovectl k-anonymizes a CDR dataset with GLOVE through the
// gloved release pipeline — served in process, or a resident daemon
// named by -server: it ingests raw records, builds mobile fingerprints
// (projecting positions onto the 100 m grid), runs the GLOVE algorithm
// with optional suppression as one batch release or one release per
// time window, validates every release (k-anonymity + truthfulness),
// reports the accuracy of the published data, and writes the
// anonymized dataset.
//
// SIGINT/SIGTERM cancel the run gracefully: the GLOVE loop stops at the
// next iteration and no partial -out file is left behind (output is
// written to a temporary file and renamed only on success).
//
// Usage:
//
//	glovectl -in civ.csv -lat 7.54 -lon -5.55 -days 14 -k 2 \
//	         -suppress-km 15 -suppress-min 360 -out civ-anon.csv
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "glovectl: %v\n", err)
		os.Exit(1)
	}
}
