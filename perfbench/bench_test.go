package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload re-executes itself as a child server or replay process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && strings.HasPrefix(os.Args[1], "child-") {
		os.Exit(runChild(os.Args[1], os.Args[2:]))
	}
	os.Exit(m.Run())
}

type benchDef struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDef(t *testing.T) benchDef {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d benchDef
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runBench runs one minimal-size invocation and returns its output and
// parsed result line.
func runBench(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := benchMain(append([]string{"--seconds", "0"}, args...), &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return out.String(), res
}

// A minimal-size run of every workload passes its gates and emits exactly
// the metrics BENCHMARK.json names, with their units: the end-to-end ones
// untraced, the per-layer ones traced.
func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	d := loadDef(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				out, res := runBench(t, "--workload", w.Name, "--seed", "5", "--trace", trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("gates failed: %+v\n%s", res, out)
				}
				want := d.EndToEnd
				if trace == "1" {
					want = d.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if !strings.Contains(out, "machine: cpu=") {
					t.Error("no machine fingerprint")
				}
			})
		}
	}
}

// Two runs of one seed print the same result digest.
func TestDigestRepeats(t *testing.T) {
	digest := regexp.MustCompile(`digest: [0-9a-f]+`)
	a, _ := runBench(t, "--workload", "fuzz-war", "--seed", "9")
	b, _ := runBench(t, "--workload", "fuzz-war", "--seed", "9")
	da, db := digest.FindString(a), digest.FindString(b)
	if da == "" || da != db {
		t.Fatalf("digests %q and %q", da, db)
	}
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 30 samples: the 20th has exactly ten beyond it.
	if v, p := tailOf(xs); v != 20 || math.Abs(p-66.667) > 0.01 {
		t.Fatalf("tail %v at p%v", v, p)
	}
	for _, n := range []int{5, 11, 19} {
		if v, p := tailOf(xs[:n]); v != float64(n) || p != 100 {
			t.Fatalf("tail of %d samples %v at p%v, want the maximum", n, v, p)
		}
	}
}
