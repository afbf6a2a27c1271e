package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks output
// against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

// TestSmoke runs every workload end to end at tiny sizes against a
// freshly built gloved, untraced and traced: every release must
// validate, the metrics must be exactly those BENCHMARK.json names with
// their units, and tracing must not change the release digest. Every
// workload BENCHMARK.json names must exist here.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds gloved and runs it")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Work {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}

	dir := t.TempDir()
	gloved := filepath.Join(dir, "gloved")
	if out, err := exec.Command("go", "build", "-o", gloved, "repro/cmd/gloved").CombinedOutput(); err != nil {
		t.Fatalf("building gloved: %v\n%s", err, out)
	}
	for _, wl := range workloadNames() {
		t.Run(wl, func(t *testing.T) {
			digests := map[string]string{}
			for _, trace := range []string{"0", "1"} {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", wl, "-seed", "3", "-seconds", "1", "-trace", trace,
					"-smoke", "-gloved", gloved, "-work-dir", dir}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("trace %s: exit %d\n%s%s", trace, code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("trace %s: last line is not the result: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace %s: correct=%t failed=%d attempted=%d\n%s", trace, res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				want := sp.EndToEnd
				if trace == "1" {
					want = sp.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %s: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
					}
				}
				for _, l := range lines {
					if strings.HasPrefix(l, "# digest ") {
						digests[trace] = l
					}
				}
			}
			if digests["0"] == "" || digests["0"] != digests["1"] {
				t.Errorf("release digest changed with tracing:\n%s\n%s", digests["0"], digests["1"])
			}
		})
	}
}
