package service

import (
	"flag"
	"strconv"
	"strings"

	"tricomm"
	"tricomm/internal/scenario"
)

// BindJobFlags registers the job-spec flags the CLIs share (tricli submit
// and load, tritest) on fs, with def supplying each flag's default. The
// returned constructor builds the JobSpec after fs.Parse: -scenario (a
// family name or JSON spec) resolves through the scenario registry, and
// otherwise the legacy -kind/-n/-d/-eps flags name the graph, with -eps
// doubling as the construction farness of kind "far".
func BindJobFlags(fs *flag.FlagSet, def JobSpec) func() (JobSpec, error) {
	js := def
	kind := fs.String("kind", def.Graph.Kind, "legacy graph kind: far | random | bipartite (the scenario catalog lists every family)")
	scen := fs.String("scenario", "", "scenario: a registry family name or JSON spec; overrides -kind/-n/-d/-eps")
	n := fs.Int("n", def.Graph.N, "number of vertices")
	d := fs.Float64("d", def.Graph.D, "target average degree")
	fs.Float64Var(&js.Eps, "eps", def.Eps, "farness parameter (construction and tester)")
	fs.IntVar(&js.K, "k", def.K, "number of players")
	fs.StringVar(&js.Partition, "partition", def.Partition, "partition: "+strings.Join(tricomm.SplitSchemeNames(), " | "))
	fs.StringVar(&js.Protocol, "protocol", def.Protocol, "protocol: "+strings.Join(tricomm.ProtocolNames(), " | "))
	fs.StringVar(&js.Transport, "transport", def.Transport, "session transport: "+strings.Join(tricomm.TransportNames(), " | "))
	fs.IntVar(&js.Trials, "trials", def.Trials, "trials per job")
	fs.Var((*seedFlag)(&js.Seed), "seed", "base seed, a `uint64`; a negative int64 wraps to its two's-complement bits")
	fs.BoolVar(&js.KnownDegree, "known-degree", def.KnownDegree, "tell the protocol the true average degree")
	fs.BoolVar(&js.Check, "check", def.Check, "also report each instance's ground truth")
	fs.StringVar(&js.Faults, "faults", def.Faults, "deterministic fault injection: off | lossy | chaos | JSON fault spec")
	return func() (JobSpec, error) {
		out := js
		out.Graph = GraphSpec{Kind: *kind, Spec: scenario.Spec{N: *n, D: *d, Eps: js.Eps}}
		if *kind != "far" {
			out.Graph.Eps = 0
		}
		if *scen != "" {
			var err error
			if out.Graph, err = ParseGraphSpec(*scen); err != nil {
				return JobSpec{}, err
			}
		}
		return out, nil
	}
}

// seedFlag is a uint64 seed flag that also accepts a negative int64,
// taken as its two's-complement bits — so int64 seeds round-trip through
// the uint64 JobSpec.Seed unchanged.
type seedFlag uint64

func (f *seedFlag) String() string { return strconv.FormatUint(uint64(*f), 10) }

func (f *seedFlag) Set(s string) error {
	if u, err := strconv.ParseUint(s, 0, 64); err == nil {
		*f = seedFlag(u)
		return nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return err
	}
	*f = seedFlag(v)
	return nil
}
