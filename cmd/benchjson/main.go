// Command benchjson turns `go test -bench -benchmem` text output into the
// JSON report behind the BENCH_N.json perf trajectory, and gates one
// report against another. It defines no benchmarks of its own: every
// number it reports comes from a _test.go benchmark.
//
// Converting reads the transcript from the file argument, or from stdin
// when there is none. Each result is named by its package path with the
// module prefix "tricomm/" removed (the root package stays "tricomm"),
// then the benchmark name without "Benchmark" and without the
// -GOMAXPROCS suffix: internal/graph/Build,
// internal/scenario/Build/chung-lu, tricomm/Session/simlow. It records
// ns/op, B/op, allocs/op, the iteration count and bits/op, and ignores
// other units. It fails on a FAIL line, on input with no benchmark lines,
// on a benchmark line it cannot parse (or one without -benchmem's
// allocs/op), and on a duplicate name, such as -count > 1 produces.
//
// `benchjson -compare old.json new.json` gates every benchmark present in
// both reports: ns/op may grow by at most -max-regress percent, bits/op
// must be equal, and allocs/op may exceed the baseline by at most
// allocSlack, or not at all when the baseline is 0. Benchmarks present in
// only one report are listed but never fail, so baselines may gain or
// retire benchmarks without churn.
//
// For example, with two of the packages CI benchmarks (the CI step in
// .github/workflows/ci.yml lists them all and recorded BENCH_16.json):
//
//	go test -run '^$' -bench . -benchtime 100x -benchmem ./internal/graph > bench.txt
//	go test -run '^$' -bench '^BenchmarkSession$' -benchtime 100x -benchmem . >> bench.txt
//	benchjson -o bench_smoke.json bench.txt
//	benchjson -compare -max-regress 300 BENCH_16.json bench_smoke.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// modulePath is the prefix stripped from package paths in result names.
const modulePath = "tricomm"

// allocSlack is how many allocs/op a benchmark may gain over a nonzero
// baseline before -compare fails. It is sized from 6 runs of the CI
// commands at 100x and GOMAXPROCS=2 on one machine: 38 of the 52
// benchmarks never moved, 11 moved by 1–2, and the 0.74M–2.7M allocs/op
// interactive sessions by 9–17. Those sessions' counts also depend on
// GOMAXPROCS (at 4 they read +45 to +350 allocs/op, at 1 they read -36
// to -230), so CI pins GOMAXPROCS to the baseline's. The slack still
// fails any new allocation per round of an interactive session, which
// runs hundreds of rounds, and any allocation at all in a 0-alloc
// benchmark.
const allocSlack = 32

// Result is one benchmark's measurement.
type Result struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
	BytesOp  int64   `json:"bytes_op"`
	BitsOp   float64 `json:"bits_op,omitempty"`
	N        int     `json:"iterations"`
}

// Report is the emitted document. Go is the converter's toolchain;
// Benchtime is "<N>x" when every benchmark ran N iterations, as under a
// fixed -benchtime Nx, and empty otherwise.
type Report struct {
	Go        string   `json:"go"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out        = flag.String("o", "", "output path (default stdout)")
		compare    = flag.Bool("compare", false, "compare two reports: benchjson -compare old.json new.json")
		maxRegress = flag.Float64("max-regress", 20, "with -compare: exit 1 when any shared benchmark's ns/op grew by more than this percent")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants exactly two report paths, got %d", flag.NArg())
		}
		oldRep, err := load(flag.Arg(0))
		if err != nil {
			return err
		}
		newRep, err := load(flag.Arg(1))
		if err != nil {
			return err
		}
		return compareReports(os.Stdout, oldRep, newRep, *maxRegress)
	}

	in := io.Reader(os.Stdin)
	switch flag.NArg() {
	case 0:
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return fmt.Errorf("want at most one input file, got %d", flag.NArg())
	}
	rep, err := parse(in)
	if err != nil {
		return err
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// parse converts one `go test -bench -benchmem` transcript, possibly the
// concatenated output of several packages, into a report.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Go: runtime.Version()}
	seen := make(map[string]bool)
	pkg := ""
	sc := bufio.NewScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "FAIL"), strings.HasPrefix(strings.TrimSpace(line), "--- FAIL"):
			return nil, fmt.Errorf("line %d: benchmark run failed: %s", lineNo, line)
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, err := parseResult(pkg, line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if seen[res.Name] {
				return nil, fmt.Errorf("line %d: duplicate benchmark %s", lineNo, res.Name)
			}
			seen[res.Name] = true
			rep.Results = append(rep.Results, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("no benchmark lines in input")
	}
	rep.Benchtime = fmt.Sprintf("%dx", rep.Results[0].N)
	for _, res := range rep.Results {
		if res.N != rep.Results[0].N {
			rep.Benchtime = ""
		}
	}
	return rep, nil
}

// parseResult parses one benchmark line of package pkg:
//
//	BenchmarkName-2   100   461750 ns/op   10840 bits/op   85972 B/op   250 allocs/op
func parseResult(pkg, line string) (Result, error) {
	f := strings.Fields(line)
	if pkg == "" || len(f) < 4 || len(f)%2 != 0 {
		return Result{}, fmt.Errorf("cannot parse benchmark line %q", line)
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	n, err := strconv.Atoi(f[1])
	if err != nil {
		return Result{}, fmt.Errorf("cannot parse benchmark line %q", line)
	}
	res := Result{Name: strings.TrimPrefix(pkg, modulePath+"/") + "/" + name, N: n}
	var haveNs, haveAllocs bool
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("cannot parse benchmark line %q", line)
		}
		switch f[i+1] {
		case "ns/op":
			res.NsPerOp, haveNs = v, true
		case "B/op":
			res.BytesOp = int64(v)
		case "allocs/op":
			res.AllocsOp, haveAllocs = int64(v), true
		case "bits/op":
			res.BitsOp = v
		}
	}
	if !haveNs || !haveAllocs {
		return Result{}, fmt.Errorf("%s: want ns/op and allocs/op (run go test with -benchmem): %q", res.Name, line)
	}
	return res, nil
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports writes a per-benchmark table of ns/op, allocs/op and
// bits/op between two reports to w, and returns an error naming every
// benchmark present in both that fails the gate described in the package
// comment.
func compareReports(w io.Writer, oldRep, newRep *Report, maxRegress float64) error {
	oldBy := make(map[string]Result, len(oldRep.Results))
	for _, r := range oldRep.Results {
		oldBy[r.Name] = r
	}
	const row = "%-40s %14s %14s %9s %10s %10s  %s\n"
	fmt.Fprintf(w, row, "benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "")
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
	var failed []string
	seen := make(map[string]bool, len(newRep.Results))
	for _, nr := range newRep.Results {
		seen[nr.Name] = true
		or, ok := oldBy[nr.Name]
		if !ok {
			fmt.Fprintf(w, row, nr.Name, "-", num(nr.NsPerOp), "new", "-", strconv.FormatInt(nr.AllocsOp, 10), "")
			continue
		}
		delta := 0.0
		if or.NsPerOp > 0 {
			delta = (nr.NsPerOp - or.NsPerOp) / or.NsPerOp * 100
		}
		var marks []string
		if delta > maxRegress {
			marks = append(marks, "NS REGRESSION")
		}
		slack := int64(allocSlack)
		if or.AllocsOp == 0 {
			slack = 0
		}
		if nr.AllocsOp > or.AllocsOp+slack {
			marks = append(marks, "ALLOCS REGRESSION")
		}
		if nr.BitsOp != or.BitsOp {
			marks = append(marks, fmt.Sprintf("BITS %s -> %s", num(or.BitsOp), num(nr.BitsOp)))
		}
		if len(marks) > 0 {
			failed = append(failed, nr.Name+" ("+strings.Join(marks, ", ")+")")
		}
		fmt.Fprintf(w, row, nr.Name, num(or.NsPerOp), num(nr.NsPerOp), fmt.Sprintf("%+.1f%%", delta),
			strconv.FormatInt(or.AllocsOp, 10), strconv.FormatInt(nr.AllocsOp, 10), strings.Join(marks, ", "))
	}
	for _, or := range oldRep.Results {
		if !seen[or.Name] {
			fmt.Fprintf(w, row, or.Name, num(or.NsPerOp), "-", "gone", strconv.FormatInt(or.AllocsOp, 10), "-", "")
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d benchmark(s) failed the gate (ns/op limit +%.0f%%, allocs/op slack %d, bits/op exact): %s",
			len(failed), maxRegress, allocSlack, strings.Join(failed, "; "))
	}
	return nil
}
