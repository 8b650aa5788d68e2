package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tricomm/internal/graph"
	"tricomm/internal/xrand"
)

func testGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.ErdosRenyi(60, 0.15, rng)
}

func allPartitioners() []Partitioner {
	return []Partitioner{
		Disjoint{},
		Duplicate{Q: 0.3},
		Duplicate{Q: 0},
		All{},
		RoundRobin{},
		ByVertex{},
	}
}

func TestAllSchemesCoverGraph(t *testing.T) {
	g := testGraph(1)
	s := xrand.New(7)
	for _, pt := range allPartitioners() {
		for _, k := range []int{1, 2, 5, 16} {
			p := pt.Split(g, k, s)
			if p.K() != k {
				t.Fatalf("%s k=%d: K() = %d", pt.Name(), k, p.K())
			}
			if err := p.Validate(g); err != nil {
				t.Fatalf("%s k=%d: %v", pt.Name(), k, err)
			}
		}
	}
}

func TestDisjointIsDisjoint(t *testing.T) {
	g := testGraph(2)
	for _, pt := range []Partitioner{Disjoint{}, RoundRobin{}, ByVertex{}, Duplicate{Q: 0}} {
		p := pt.Split(g, 7, xrand.New(3))
		if p.TotalHeld() != g.M() {
			t.Fatalf("%s: total held %d != m %d", pt.Name(), p.TotalHeld(), g.M())
		}
	}
}

func TestAllDuplicatesEverything(t *testing.T) {
	g := testGraph(3)
	p := All{}.Split(g, 4, xrand.New(1))
	if p.TotalHeld() != 4*g.M() {
		t.Fatalf("total held %d, want %d", p.TotalHeld(), 4*g.M())
	}
	for j := 0; j < 4; j++ {
		if len(p.Inputs[j]) != g.M() {
			t.Fatalf("player %d holds %d edges", j, len(p.Inputs[j]))
		}
	}
}

func TestDuplicateReplicationRate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.ErdosRenyi(200, 0.2, rng)
	const k = 8
	const q = 0.25
	p := Duplicate{Q: q}.Split(g, k, xrand.New(9))
	// Expected copies per edge: 1 + q·(k-1) (approximately; the designated
	// holder may also be hit by the q coin, which we fold into tolerance).
	want := float64(g.M()) * (1 + q*float64(k-1))
	got := float64(p.TotalHeld())
	if got < 0.9*want || got > 1.1*want {
		t.Fatalf("TotalHeld = %v, want ~%v", got, want)
	}
}

func TestDisjointBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ErdosRenyi(300, 0.2, rng)
	const k = 6
	p := Disjoint{}.Split(g, k, xrand.New(11))
	want := float64(g.M()) / k
	for j := 0; j < k; j++ {
		got := float64(len(p.Inputs[j]))
		if got < 0.7*want || got > 1.3*want {
			t.Fatalf("player %d holds %v edges, want ~%v", j, got, want)
		}
	}
}

func TestByVertexLocality(t *testing.T) {
	// All edges incident to a given lower endpoint go to one player.
	g := testGraph(6)
	p := ByVertex{}.Split(g, 5, xrand.New(13))
	owner := map[int]int{}
	for j, edges := range p.Inputs {
		for _, e := range edges {
			lo := e.Canon().U
			if prev, ok := owner[lo]; ok && prev != j {
				t.Fatalf("vertex %d split across players %d and %d", lo, prev, j)
			}
			owner[lo] = j
		}
	}
}

func TestSplitDeterminism(t *testing.T) {
	g := testGraph(7)
	for _, pt := range allPartitioners() {
		p1 := pt.Split(g, 4, xrand.New(42))
		p2 := pt.Split(g, 4, xrand.New(42))
		for j := range p1.Inputs {
			if len(p1.Inputs[j]) != len(p2.Inputs[j]) {
				t.Fatalf("%s: nondeterministic split", pt.Name())
			}
			for i := range p1.Inputs[j] {
				if p1.Inputs[j][i] != p2.Inputs[j][i] {
					t.Fatalf("%s: nondeterministic split", pt.Name())
				}
			}
		}
	}
}

func TestValidateDetectsMissingEdge(t *testing.T) {
	g := graph.Complete(5)
	p := Disjoint{}.Split(g, 3, xrand.New(19))
	// Corrupt: drop one edge from every player.
	for j := range p.Inputs {
		if len(p.Inputs[j]) > 0 {
			p.Inputs[j] = p.Inputs[j][1:]
		}
	}
	if err := p.Validate(g); err == nil {
		t.Fatal("Validate accepted a lossy partition")
	}
}

func TestQuickUnionInvariant(t *testing.T) {
	f := func(seed int64, kRaw uint8, qRaw uint8) bool {
		k := int(kRaw)%8 + 1
		q := float64(qRaw) / 255
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(40, 0.2, rng)
		p := Duplicate{Q: q}.Split(g, k, xrand.New(uint64(seed)))
		return p.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroPlayersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	Disjoint{}.Split(graph.Complete(3), 0, xrand.New(1))
}
