package service

import (
	"flag"
	"io"
	"testing"

	"tricomm/internal/scenario"
)

func TestBindJobFlags(t *testing.T) {
	def := JobSpec{
		Graph:          GraphSpec{Kind: "far", Spec: scenario.Spec{N: 512, D: 8}},
		K:              4,
		Protocol:       "sim-oblivious",
		Eps:            0.25,
		Trials:         1,
		Seed:           1,
		TrialTimeoutMS: 7, // not a flag: carried from def untouched
	}
	parse := func(t *testing.T, args ...string) JobSpec {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		spec := BindJobFlags(fs, def)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		js, err := spec()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}

	t.Run("defaults", func(t *testing.T) {
		js := parse(t)
		// Kind "far": -eps is also the construction farness.
		want := scenario.Spec{N: 512, D: 8, Eps: 0.25}
		if js.Graph.Kind != "far" || js.Graph.Spec != want || js.K != 4 || js.Eps != 0.25 ||
			js.Seed != 1 || js.Trials != 1 || js.Protocol != "sim-oblivious" || js.TrialTimeoutMS != 7 {
			t.Fatalf("got %+v", js)
		}
	})
	t.Run("legacy kind", func(t *testing.T) {
		js := parse(t, "-kind", "random", "-n", "64", "-eps", "0.3", "-k", "3", "-protocol", "exact")
		want := scenario.Spec{N: 64, D: 8}
		if js.Graph.Kind != "random" || js.Graph.Spec != want || js.Eps != 0.3 || js.K != 3 ||
			js.Protocol != "exact" {
			t.Fatalf("got %+v", js)
		}
	})
	t.Run("scenario overrides kind", func(t *testing.T) {
		js := parse(t, "-kind", "random", "-scenario", "chung-lu")
		want, err := ParseGraphSpec("chung-lu")
		if err != nil {
			t.Fatal(err)
		}
		if js.Graph.Kind != "" || js.Graph.Spec != want.Spec {
			t.Fatalf("graph = %+v, want %+v", js.Graph, want)
		}
	})
	t.Run("seeds", func(t *testing.T) {
		if js := parse(t, "-seed", "-3"); int64(js.Seed) != -3 {
			t.Fatalf("-seed -3 gave %d", js.Seed)
		}
		if js := parse(t, "-seed", "18446744073709551615"); js.Seed != 1<<64-1 {
			t.Fatalf("max uint64 seed gave %d", js.Seed)
		}
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		BindJobFlags(fs, def)
		if err := fs.Parse([]string{"-seed", "x"}); err == nil {
			t.Fatal("non-numeric seed accepted")
		}
	})
	t.Run("bad scenario", func(t *testing.T) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		spec := BindJobFlags(fs, def)
		if err := fs.Parse([]string{"-scenario", "bogus"}); err != nil {
			t.Fatal(err)
		}
		if _, err := spec(); err == nil {
			t.Fatal("unknown scenario family accepted")
		}
	})
}
