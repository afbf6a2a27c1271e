// Command gloved is the resident GLOVE anonymization service: a long-
// running HTTP daemon that ingests raw CDR datasets as streaming CSV,
// schedules k-anonymization jobs over sharded worker pools, reports
// live per-job progress, and serves the anonymized datasets with each
// release's accuracy and privacy on its job's status. GET /metrics is
// the daemon-wide picture, in Prometheus text format.
//
// Usage:
//
//	gloved -addr :8080 -max-jobs 2 -workers 0
//
// See the README for the endpoint reference and an example curl
// session.
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
		fmt.Fprintf(os.Stderr, "gloved: %v\n", err)
		os.Exit(1)
	}
}
