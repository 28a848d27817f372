package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		code []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		var fromJSON, fromCode []string
		for _, m := range c.json {
			fromJSON = append(fromJSON, m.Name+" "+m.Unit)
		}
		for _, m := range c.code {
			fromCode = append(fromCode, m.name+" "+m.unit)
		}
		if !slices.Equal(fromJSON, fromCode) {
			t.Errorf("%s: BENCHMARK.json has\n%v\ncode has\n%v", c.kind, fromJSON, fromCode)
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s is not in BENCHMARK.json", name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, code has %d workloads", names, len(workloads))
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each prints a correct result carrying every metric
// BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, c := range []struct {
			trace string
			want  []struct{ Name, Unit string }
		}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
			t.Run(w.Name+"/trace="+c.trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "1", "--seconds", "0.3",
					"--trace", c.trace, "--out", dir}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d: %s", res.Correct, res.Attempted, stderr.String())
				}
				if len(res.Metrics) != len(c.want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(c.want))
				}
				for _, m := range c.want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if c.trace == "1" {
					for _, f := range []string{w.Name + "-seed1.pprof", w.Name + "-seed1-spans.csv"} {
						if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
							t.Errorf("traced run wrote no %s: %v", f, err)
						}
					}
				}
			})
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-synth", "--seconds", "0"},
		{"--workload", "sim-synth", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a failure and no result", args, code, stdout.String())
		}
	}
}
