package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// exactMetrics are the counts that depend only on the workload seed and
// the fixed op set, never on timing.
var exactMetrics = []string{
	"bits_per_op", "detect_rate",
	"engine.rounds_per_op", "engine.messages_per_op",
	"transport.frames_per_op", "transport.wire_bytes_per_op",
	"service.store_fsyncs_per_op",
	"protocol.phase_bits.estimate", "protocol.phase_bits.candidates",
	"protocol.phase_bits.edges", "protocol.phase_bits.unphased",
}

// TestExactCountsRepeat runs every workload at a small size twice, traced,
// and requires identical exact counts and no failed check.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w.name, seed: 7, window: 50 * time.Millisecond, trace: true,
				setSize: 4, setups: 1, dir: t.TempDir()}
			var runs [2]outcome
			for i := range runs {
				o, err := bench(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(o.failures) > 0 || o.attempted == 0 {
					t.Fatalf("run %d: %d of %d ops failed: %v", i, len(o.failures), o.attempted, o.failures)
				}
				runs[i] = o
			}
			for _, name := range exactMetrics {
				a, b := runs[0].metrics[name], runs[1].metrics[name]
				if a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
			if runs[0].metrics["bits_per_op"] <= 0 || runs[0].metrics["engine.rounds_per_op"] <= 0 {
				t.Errorf("no communication counted: %v", runs[0].metrics)
			}
		})
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPrintedMetricsMatchBenchmarkJSON runs daemon-tiny at a small size,
// untraced and traced, and requires the last printed line to carry exactly
// the metrics BENCHMARK.json declares, with their units, and the workloads
// to be BENCHMARK.json's.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for i, w := range b.Workloads {
		if i >= len(workloads) || w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q, want the workloads %v with their whys", i, w.Name, names)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	declared := func(trace bool) map[string]string {
		m := make(map[string]string)
		if trace {
			for _, d := range b.PerLayer {
				m[d.Name] = d.Unit
			}
		} else {
			for _, d := range b.EndToEnd {
				m[d.Name] = d.Unit
			}
		}
		return m
	}
	for _, trace := range []bool{false, true} {
		o, err := bench(context.Background(), config{workload: "daemon-tiny", seed: 3,
			window: 50 * time.Millisecond, trace: trace, setSize: 4, setups: 1, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := report(&stdout, &stderr, o, trace); code != 0 {
			t.Fatalf("trace %v: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var out struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&out); err != nil {
			t.Fatalf("trace %v: last line: %v", trace, err)
		}
		if out.Correct == nil || !*out.Correct || out.Attempted == nil || *out.Attempted < 1 || out.Failed == nil || *out.Failed != 0 {
			t.Errorf("trace %v: bad result header in %s", trace, lines[len(lines)-1])
		}
		want := declared(trace)
		var got []string
		for name, m := range out.Metrics {
			got = append(got, name)
			if u, ok := want[name]; !ok || u != m.Unit {
				t.Errorf("trace %v: printed %s [%s], BENCHMARK.json declares [%s]", trace, name, m.Unit, u)
			}
		}
		if len(got) != len(want) {
			slices.Sort(got)
			t.Errorf("trace %v: printed %d metrics %v, BENCHMARK.json declares %d", trace, len(got), got, len(want))
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 50},  // overlaps a
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent
	}}
	self := tr.selfTimes()
	for name, want := range map[string]time.Duration{"op": 100 - 40 - 10, "a": 30, "b": 20, "c": 30} {
		if self[name] != want {
			t.Errorf("self(%s) = %v, want %v", name, self[name], want)
		}
	}
}
