package tricomm

import (
	"context"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	g, certEps := FarGraph(600, 8, 0.25, 1)
	if certEps < 0.25 {
		t.Fatalf("certified eps %v", certEps)
	}
	cluster, err := Split(g, 4, SplitDuplicate, 42)
	if err != nil {
		t.Fatal(err)
	}
	if cluster.K() != 4 || cluster.N() != 600 {
		t.Fatalf("cluster shape %d/%d", cluster.K(), cluster.N())
	}
	if u := cluster.Union(); u.M() != g.M() {
		t.Fatalf("union lost edges: %d vs %d", u.M(), g.M())
	}
	found := false
	for seed := uint64(0); seed < 5 && !found; seed++ {
		c, err := Split(g, 4, SplitDisjoint, seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Test(context.Background(), Options{Protocol: Auto, Eps: certEps})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.TriangleFree {
			if !g.IsTriangle(rep.Witness.A, rep.Witness.B, rep.Witness.C) {
				t.Fatalf("phantom witness %v", rep.Witness)
			}
			found = true
		}
		if rep.Bits <= 0 || rep.Protocol == "" {
			t.Fatalf("report incomplete: %+v", rep)
		}
	}
	if !found {
		t.Fatal("auto tester never found a triangle in 5 runs on an ε-far graph")
	}
}

func TestFacadeAllProtocols(t *testing.T) {
	g, eps := FarGraph(400, 8, 0.25, 2)
	d := g.AvgDegree()
	cluster, err := Split(g, 3, SplitDisjoint, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Protocol{Auto, Interactive, InteractiveBlackboard, SimultaneousLow, SimultaneousHigh, SimultaneousOblivious, Exact} {
		rep, err := cluster.Test(context.Background(), Options{Protocol: p, Eps: eps, AvgDegree: d})
		if err != nil {
			t.Fatalf("protocol %d: %v", int(p), err)
		}
		if !rep.TriangleFree && !g.IsTriangle(rep.Witness.A, rep.Witness.B, rep.Witness.C) {
			t.Fatalf("protocol %d: phantom witness", int(p))
		}
		if len(rep.PerPlayerBits) != 3 {
			t.Fatalf("protocol %d: per-player stats missing", int(p))
		}
	}
	if _, err := cluster.Test(context.Background(), Options{Protocol: Protocol(99)}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestFacadeTriangleFreeSoundness(t *testing.T) {
	g := BipartiteGraph(500, 6, 3)
	cluster, err := Split(g, 4, SplitDuplicate, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Protocol{Auto, Interactive, Exact} {
		rep, err := cluster.Test(context.Background(), Options{Protocol: p, Eps: 0.2, AvgDegree: g.AvgDegree()})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.TriangleFree {
			t.Fatalf("protocol %d rejected a triangle-free graph", int(p))
		}
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(-1, [][]Edge{{}}, 1); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := NewCluster(5, nil, 1); err == nil {
		t.Fatal("no players accepted")
	}
	if _, err := NewCluster(5, [][]Edge{{{U: 0, V: 9}}}, 1); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	c, err := NewCluster(5, [][]Edge{{{U: 0, V: 1}}, {{U: 1, V: 2}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Union().M() != 2 {
		t.Fatal("union wrong")
	}
}

func TestSplitValidation(t *testing.T) {
	g := RandomGraph(50, 4, 1)
	if _, err := Split(g, 0, SplitDisjoint, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Split(g, 3, SplitScheme(99), 1); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	for _, s := range []SplitScheme{SplitDisjoint, SplitDuplicate, SplitByVertex, SplitAll} {
		c, err := Split(g, 3, s, 1)
		if err != nil {
			t.Fatalf("scheme %d: %v", int(s), err)
		}
		if c.Union().M() != g.M() {
			t.Fatalf("scheme %d: union mismatch", int(s))
		}
	}
}

func TestGeneratorsFacade(t *testing.T) {
	if g := RandomGraph(300, 10, 5); g.N() != 300 || g.M() == 0 {
		t.Fatal("RandomGraph broken")
	}
	bp := BipartiteGraph(300, 10, 5)
	if !bp.IsTriangleFree() {
		t.Fatal("BipartiteGraph has a triangle")
	}
	// Determinism from seed.
	g1, _ := FarGraph(300, 8, 0.2, 11)
	g2, _ := FarGraph(300, 8, 0.2, 11)
	if g1.M() != g2.M() {
		t.Fatal("FarGraph not deterministic")
	}
}

func TestFacadeAssumeDisjoint(t *testing.T) {
	g, eps := FarGraph(500, 8, 0.25, 21)
	cluster, err := Split(g, 4, SplitDisjoint, 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cluster.Test(context.Background(), Options{
		Protocol: Interactive, Eps: eps, AvgDegree: g.AvgDegree(), AssumeDisjoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TriangleFree && !g.IsTriangle(rep.Witness.A, rep.Witness.B, rep.Witness.C) {
		t.Fatal("phantom witness under disjointness promise")
	}
}

func TestParseSplitScheme(t *testing.T) {
	want := map[string]SplitScheme{
		"":          SplitDisjoint,
		"disjoint":  SplitDisjoint,
		"duplicate": SplitDuplicate,
		"byvertex":  SplitByVertex,
		"all":       SplitAll,
	}
	for _, name := range SplitSchemeNames() {
		if _, ok := want[name]; !ok {
			t.Errorf("SplitSchemeNames lists %q, which this table does not cover", name)
		}
	}
	for in, w := range want {
		if got, err := ParseSplitScheme(in); err != nil || got != w {
			t.Errorf("ParseSplitScheme(%q) = %v, %v; want %v", in, got, err, w)
		}
	}
	if _, err := ParseSplitScheme("bogus"); err == nil {
		t.Error("bogus split scheme accepted")
	}
}

func TestParseProtocol(t *testing.T) {
	want := map[string]Protocol{
		"":              SimultaneousOblivious,
		"auto":          SimultaneousOblivious,
		"interactive":   Interactive,
		"blackboard":    InteractiveBlackboard,
		"sim-low":       SimultaneousLow,
		"sim-high":      SimultaneousHigh,
		"sim-oblivious": SimultaneousOblivious,
		"exact":         Exact,
	}
	for _, name := range ProtocolNames() {
		if _, ok := want[name]; !ok {
			t.Errorf("ProtocolNames lists %q, which this table does not cover", name)
		}
	}
	for in, w := range want {
		if got, err := ParseProtocol(in); err != nil || got != w {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", in, got, err, w)
		}
	}
	if _, err := ParseProtocol("bogus"); err == nil {
		t.Error("bogus protocol accepted")
	}
}

func TestParseTransport(t *testing.T) {
	want := map[string]Transport{
		"":           TransportInProcess,
		"in-process": TransportInProcess,
		"chan":       TransportInProcess,
		"pipe":       TransportPipe,
		"tcp":        TransportTCP,
		"wan":        TransportWAN,
	}
	for _, name := range TransportNames() {
		if _, ok := want[name]; !ok {
			t.Errorf("TransportNames lists %q, which this table does not cover", name)
		}
	}
	for in, w := range want {
		if got, err := ParseTransport(in); err != nil || got != w {
			t.Errorf("ParseTransport(%q) = %v, %v; want %v", in, got, err, w)
		}
	}
	if _, err := ParseTransport("bogus"); err == nil {
		t.Error("bogus transport accepted")
	}
}
