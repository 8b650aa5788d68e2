// Command perfbench is the repository benchmark: closed-loop workloads
// against the public entry points (the tricomm facade, and tricommd's
// service.New + Handler + Client over loopback HTTP), with every output
// checked against its regenerated instance. See README.md for the
// workloads, the metrics, and which layer should move which metric.
//
//	go run . --workload interactive-dup --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics of the run — the end-to-end metrics untraced
// (--trace 0), the per-layer metrics traced (--trace 1). The command
// exits non-zero when any output fails its check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: interactive-dup | oneround-large | daemon-tiny | interactive-tcp")
	seed := fs.Int64("seed", 1, "workload seed; op i of the fixed op set uses a seed derived from it")
	seconds := fs.Float64("seconds", 10, "measuring time in seconds")
	traceFlag := fs.Int("trace", 0, "1: run traced and report the per-layer metrics")
	dir := fs.String("dir", ".", "directory for the span file and daemon stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := lookupWorkload(*name); !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of the four), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1, setups: 5, dir: *dir}

	// Every run ends well within three minutes: a stuck op fails with the
	// context instead of hanging the benchmark.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	o, err := bench(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d\n", cfg.workload, cfg.seed)
	return report(stdout, stderr, o, cfg.trace)
}

// report prints every metric of o with its unit, the notes, the error
// rate, and as the last line the JSON result: the end-to-end metrics, or
// with trace the per-layer ones. It returns the exit code.
func report(stdout, stderr io.Writer, o outcome, trace bool) int {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.failures) == 0, o.attempted, len(o.failures), make(map[string]metric)}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %14.6f %s\n", d.name, o.metrics[d.name], d.unit)
		out.Metrics[d.name] = metric{o.metrics[d.name], d.unit}
	}
	for _, line := range o.notes {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "error_rate %.6f (%d failed of %d attempted)\n",
		float64(len(o.failures))/float64(max(o.attempted, 1)), len(o.failures), o.attempted)
	for _, f := range o.failures {
		fmt.Fprintf(stderr, "check failed: %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(o.failures) > 0 {
		return 1
	}
	return 0
}
