package main

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// transcript is a recorded `go test -bench -benchmem` run over three
// packages: two of them define BenchmarkBuild, one runs sub-benchmarks,
// and the root package reports bits/op and an ignored custom unit.
const transcript = `goos: linux
goarch: amd64
pkg: tricomm/internal/graph
cpu: Intel(R) Xeon(R) Processor
BenchmarkBuild-2                 	     100	   1792782 ns/op	  893149 B/op	      10 allocs/op
BenchmarkHasEdge-2               	     100	        78.27 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	tricomm/internal/graph	2.170s
goos: linux
goarch: amd64
pkg: tricomm/internal/scenario
cpu: Intel(R) Xeon(R) Processor
BenchmarkBuild/chung-lu-2        	     100	   1584329 ns/op	  408280 B/op	      20 allocs/op
PASS
ok  	tricomm/internal/scenario	0.959s
goos: linux
goarch: amd64
pkg: tricomm
cpu: Intel(R) Xeon(R) Processor
BenchmarkSession/simlow-2         	     100	    435051 ns/op	     10840 bits/op	   85358 B/op	     250 allocs/op
BenchmarkStreaming_Probe-2        	     100	     51234 ns/op	         0.5000 success-rate	      64.00 space-bits	    1024 B/op	      12 allocs/op
PASS
ok  	tricomm	84.025s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	want := &Report{
		Go: runtime.Version(), GOOS: "linux", GOARCH: "amd64", Benchtime: "100x",
		Results: []Result{
			{Name: "internal/graph/Build", NsPerOp: 1792782, AllocsOp: 10, BytesOp: 893149, N: 100},
			{Name: "internal/graph/HasEdge", NsPerOp: 78.27, N: 100},
			{Name: "internal/scenario/Build/chung-lu", NsPerOp: 1584329, AllocsOp: 20, BytesOp: 408280, N: 100},
			{Name: "tricomm/Session/simlow", NsPerOp: 435051, AllocsOp: 250, BytesOp: 85358, BitsOp: 10840, N: 100},
			{Name: "tricomm/Streaming_Probe", NsPerOp: 51234, AllocsOp: 12, BytesOp: 1024, N: 100},
		},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("parse:\n got %+v\nwant %+v", rep, want)
	}
}

// TestParseBenchtime pins the benchtime inference: "<N>x" only when every
// benchmark ran N iterations, and no -GOMAXPROCS suffix to strip at
// GOMAXPROCS=1.
func TestParseBenchtime(t *testing.T) {
	in := "pkg: tricomm/internal/bitset\n" +
		"BenchmarkIntersectCount \t 1000 \t 12.5 ns/op \t 0 B/op \t 0 allocs/op\n" +
		"BenchmarkIntersectCountWide \t 500 \t 40.1 ns/op \t 0 B/op \t 0 allocs/op\n"
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchtime != "" {
		t.Errorf("benchtime = %q for mixed iteration counts, want empty", rep.Benchtime)
	}
	if got := rep.Results[0].Name; got != "internal/bitset/IntersectCount" {
		t.Errorf("name = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	line := "BenchmarkBuild-2 \t 100 \t 1792782 ns/op \t 893149 B/op \t 10 allocs/op\n"
	cases := []struct {
		name, in, want string
	}{
		{"FAIL line", transcript + "FAIL\ttricomm/internal/graph\t0.1s\n", "failed"},
		{"--- FAIL line", "pkg: tricomm\n--- FAIL: BenchmarkSession/simlow\n" + line, "failed"},
		{"empty", "", "no benchmark lines"},
		{"header only", "goos: linux\ngoarch: amd64\npkg: tricomm\nPASS\n", "no benchmark lines"},
		{"duplicate", "pkg: tricomm/internal/graph\n" + line + line, "duplicate benchmark internal/graph/Build"},
		{"interleaved output", "pkg: tricomm\nBenchmarkSession/simlow-2 \tsome log line\n", "cannot parse"},
		{"bad number", "pkg: tricomm\nBenchmarkX-2 \t 100 \t fast ns/op \t 0 B/op \t 0 allocs/op\n", "cannot parse"},
		{"before pkg", line, "cannot parse"},
		{"no -benchmem", "pkg: tricomm\nBenchmarkX-2 \t 100 \t 5 ns/op\n", "-benchmem"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parse(strings.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want it to contain %q", err, c.want)
			}
		})
	}
}

func TestCompareGate(t *testing.T) {
	base := func() *Report {
		return &Report{Benchtime: "100x", Results: []Result{
			{Name: "internal/graph/CountTriangles", NsPerOp: 1000, AllocsOp: 0},
			{Name: "tricomm/Session/simlow", NsPerOp: 1000, AllocsOp: 250, BitsOp: 10840},
			{Name: "internal/graph/Retired", NsPerOp: 50, AllocsOp: 3},
		}}
	}
	cases := []struct {
		name   string
		mutate func(r *Report)
		fail   string // substring of the error; "" means the gate passes
	}{
		{"identical", func(r *Report) {}, ""},
		{"bits/op mismatch", func(r *Report) { r.Results[1].BitsOp = 10841 }, "BITS 10840.0 -> 10841.0"},
		{"bits/op dropped", func(r *Report) { r.Results[1].BitsOp = 0 }, "BITS"},
		{"allocs/op within slack", func(r *Report) { r.Results[1].AllocsOp = 250 + allocSlack }, ""},
		{"allocs/op fewer", func(r *Report) { r.Results[1].AllocsOp = 200 }, ""},
		{"allocs/op over slack", func(r *Report) { r.Results[1].AllocsOp = 250 + allocSlack + 1 }, "tricomm/Session/simlow (ALLOCS REGRESSION)"},
		{"allocs/op 0 -> 1", func(r *Report) { r.Results[0].AllocsOp = 1 }, "internal/graph/CountTriangles (ALLOCS REGRESSION)"},
		{"ns/op within limit", func(r *Report) { r.Results[0].NsPerOp = 1190 }, ""},
		{"ns/op past limit", func(r *Report) { r.Results[0].NsPerOp = 1210 }, "internal/graph/CountTriangles (NS REGRESSION)"},
		{"new and gone benchmarks", func(r *Report) {
			r.Results[2] = Result{Name: "internal/graph/Added", NsPerOp: 1e9, AllocsOp: 1e6, BitsOp: 7}
		}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			newRep := base()
			c.mutate(newRep)
			var out bytes.Buffer
			err := compareReports(&out, base(), newRep, 20)
			switch {
			case c.fail == "" && err != nil:
				t.Fatalf("gate failed: %v\n%s", err, out.String())
			case c.fail != "" && (err == nil || !strings.Contains(err.Error(), c.fail)):
				t.Fatalf("err = %v, want it to contain %q\n%s", err, c.fail, out.String())
			}
		})
	}
}

// TestCompareListsUnsharedBenchmarks checks that a benchmark in only one
// report still shows up in the table, marked new or gone.
func TestCompareListsUnsharedBenchmarks(t *testing.T) {
	oldRep := &Report{Results: []Result{{Name: "a", NsPerOp: 1}, {Name: "gone-one", NsPerOp: 1}}}
	newRep := &Report{Results: []Result{{Name: "a", NsPerOp: 1}, {Name: "new-one", NsPerOp: 1}}}
	var out bytes.Buffer
	if err := compareReports(&out, oldRep, newRep, 20); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"new-one", "new", "gone-one", "gone"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}
}
