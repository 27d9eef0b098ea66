package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro"
)

// tinyArgs runs a workload at a size where every code path finishes in
// a second or two.
func tinyArgs(t *testing.T, workload, trace string) []string {
	return []string{
		"--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace,
		"--n", "3000", "--setups", "2", "--probe", "5", "--workdir", t.TempDir(),
	}
}

// benchMetrics reads the metric names and units BENCHMARK.json
// declares, by group.
func benchMetrics(t *testing.T) map[string]map[string]string {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]string{}
	for _, group := range []string{"end_to_end", "per_layer"} {
		var ms []struct{ Name, Unit string }
		if err := json.Unmarshal(spec[group], &ms); err != nil {
			t.Fatal(err)
		}
		out[group] = map[string]string{}
		for _, m := range ms {
			out[group][m.Name] = m.Unit
		}
	}
	return out
}

func lastResult(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := benchMetrics(t)
	for _, w := range workloads {
		for trace, group := range map[string]string{"0": "end_to_end", "1": "per_layer"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				if code := run(tinyArgs(t, w.name, trace), &out, &errb); code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, out.String(), errb.String())
				}
				res := lastResult(t, out.String())
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(spec[group]) {
					t.Errorf("got %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(spec[group]))
				}
				for name, unit := range spec[group] {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if m.Unit != unit {
						t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
					}
					if group == "end_to_end" && !(m.Value > 0) {
						t.Errorf("metric %s = %v, want > 0", name, m.Value)
					}
				}
				if !strings.Contains(out.String(), "env: nproc=") {
					t.Error("output does not record the environment")
				}
				if trace == "1" && w.routed && !strings.Contains(out.String(), "routed draw path") {
					t.Error("traced routed run prints no self-time split")
				}
			})
		}
	}
}

// planted returns a pair outside the window in the first timed draw of
// client 0.
type planted struct {
	srj.Source
	seed uint64
}

func (p planted) Draw(ctx context.Context, req srj.Request) (srj.Result, error) {
	res, err := p.Source.Draw(ctx, req)
	if err == nil && req.Seed == drawSeed(p.seed, 0, 0) && len(res.Pairs) > 0 {
		res.Pairs[0].S.X = res.Pairs[0].R.X + 3*halfExtent
	}
	return res, err
}

func TestPlantedOutOfWindowPairFailsTheRun(t *testing.T) {
	for _, name := range []string{"local-draw", "routed-small"} {
		t.Run(name, func(t *testing.T) {
			o, err := parseOptions(tinyArgs(t, name, "0"), &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			o.wrap = func(s srj.Source) srj.Source { return planted{Source: s, seed: o.seed} }
			var out, errb bytes.Buffer
			if code := runOne(o, &out, &errb); code == 0 {
				t.Fatalf("a planted out-of-window pair passed:\n%s", out.String())
			}
			if res := lastResult(t, out.String()); res.Correct {
				t.Error("result says correct")
			}
			if !strings.Contains(out.String(), "outside the window") {
				t.Errorf("no window check failure reported:\n%s", out.String())
			}
		})
	}
}

// The seeded work counts — sampling trials of the probe draws, dynamic
// in-place operations, WAL bytes — repeat exactly for one seed.
func TestSeededCountsRepeat(t *testing.T) {
	for _, name := range []string{"local-draw", "mixed-write"} {
		t.Run(name, func(t *testing.T) {
			var counts []string
			for i := 0; i < 2; i++ {
				var out, errb bytes.Buffer
				if code := run(tinyArgs(t, name, "0"), &out, &errb); code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, out.String(), errb.String())
				}
				for _, l := range strings.Split(out.String(), "\n") {
					if strings.HasPrefix(l, "counts:") {
						counts = append(counts, l)
					}
				}
			}
			if len(counts) != 2 || counts[0] != counts[1] {
				t.Errorf("seeded counts differ across runs: %q", counts)
			}
		})
	}
}
