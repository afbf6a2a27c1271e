package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cdr"
)

func TestRunGeneratesCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "d.csv")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-users", "25", "-days", "2", "-out", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := cdr.NewRecordReader(f).Next(); err != nil {
		t.Fatalf("first record of the generated dataset: %v", err)
	}
	if !strings.Contains(stderr.String(), "civ profile") {
		t.Errorf("diagnostics = %q", stderr.String())
	}
}

func TestRunProfilesAndSeeds(t *testing.T) {
	var a, b, c, stderr bytes.Buffer
	if err := run([]string{"-profile", "sen", "-users", "20", "-days", "2"}, &a, &stderr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-profile", "sen", "-users", "20", "-days", "2"}, &b, &stderr); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different datasets")
	}
	if err := run([]string{"-profile", "sen", "-users", "20", "-days", "2", "-seed", "7"}, &c, &stderr); err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Error("different seed produced identical dataset")
	}
}

func TestRunScreeningFlag(t *testing.T) {
	var with, without, stderr bytes.Buffer
	if err := run([]string{"-users", "30", "-days", "2", "-screen=true"}, &with, &stderr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-users", "30", "-days", "2", "-screen=false"}, &without, &stderr); err != nil {
		t.Fatal(err)
	}
	if with.Len() > without.Len() {
		t.Error("screening increased the dataset")
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-profile", "mars"}, &stdout, &stderr); err == nil {
		t.Error("unknown profile accepted")
	}
	if err := run([]string{"-users", "0"}, &stdout, &stderr); err == nil {
		t.Error("zero users accepted")
	}
	if err := run([]string{"-nope"}, &stdout, &stderr); err == nil {
		t.Error("bogus flag accepted")
	}
	if err := run([]string{"-users", "10", "-out", "/nonexistent-dir/x.csv"}, &stdout, &stderr); err == nil {
		t.Error("unwritable output path accepted")
	}
}
