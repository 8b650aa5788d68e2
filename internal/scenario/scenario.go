// Package scenario is the declarative instance layer: a JSON-serializable
// Spec names a workload family plus its typed parameters, and a registry
// maps family names onto deterministic constructors. Every consumer of
// instances — the facade (GenerateScenario → si.Cluster → Cluster.Test),
// the experiment harness, the tricommd service, and the CLIs — goes
// through this one registry, so adding a family here makes it reachable
// everywhere at once.
//
// Determinism contract: Build(spec, rng) is a pure function of the
// canonical spec and the rng state, so any trial is reproducible from
// (spec, seed) alone. Canonicalization (Canonical) fills family defaults,
// validates ranges, and zeroes parameters the family does not use; a
// canonical spec re-encodes to JSON and parses back to itself, which is
// what lets specs travel through CLIs, job APIs, and golden tests without
// drift (pinned by FuzzScenarioSpec).
//
// An Instance bundles the built graph with its certificate: families that
// are triangle-free by construction say so, and ε-far families carry the
// planted family of pairwise edge-disjoint triangles plus the certified
// farness CertEps = |planted| / |E|. A family may also prescribe the
// per-player edge assignment (Players non-nil), overriding the caller's
// split scheme — the duplication-adversarial family uses this to spread
// every planted triangle across three players under heavy replication.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"tricomm/internal/graph"
)

// Limits bound what a spec may ask a constructor to build, so a hostile
// JSON payload cannot stall the service's worker pool.
const (
	// MaxN is the largest vertex universe a spec may request (matches the
	// service-level cap).
	MaxN = 1 << 20
	// MaxGenEdges caps the expected edge count of a generated instance.
	MaxGenEdges = 1 << 26
	// MaxK is the largest player count a prescribing family may use.
	MaxK = 256
)

// Spec declares one instance: a family name plus the family's parameters.
// Zero-valued parameters select the family's default (Canonical fills
// them in); parameters a family does not use are zeroed during
// canonicalization, so the canonical encoding is unique. The two Expect
// fields are optional certificate expectations checked at build time.
type Spec struct {
	// Family names the registered constructor.
	Family string `json:"family"`
	// N is the vertex universe size (derived for the Behrend families).
	N int `json:"n,omitempty"`
	// D is the target average degree (random, bipartite, far, chung-lu,
	// dup-adversary) or the noise degree (hidden-block).
	D float64 `json:"d,omitempty"`
	// P is the raw edge probability (er, tripartite).
	P float64 `json:"p,omitempty"`
	// Eps is the construction farness target (far, dup-adversary).
	Eps float64 `json:"eps,omitempty"`
	// Alpha is the power-law exponent (chung-lu).
	Alpha float64 `json:"alpha,omitempty"`
	// Blocks is the community count (sbm).
	Blocks int `json:"blocks,omitempty"`
	// PIn and POut are the within/cross-community probabilities (sbm).
	PIn  float64 `json:"p_in,omitempty"`
	POut float64 `json:"p_out,omitempty"`
	// M is the base Behrend parameter (behrend, behrend-blowup).
	M int `json:"m,omitempty"`
	// Blowup is the clone-cloud size (behrend-blowup).
	Blowup int `json:"blowup,omitempty"`
	// Hubs and Pairs control dense-core (hub count, triangle-vees per
	// hub); Hubs doubles as the per-level hub count of bucket-stress.
	Hubs  int `json:"hubs,omitempty"`
	Pairs int `json:"pairs,omitempty"`
	// Levels and TriLevel control bucket-stress (degree scales, and which
	// scale carries the triangles).
	Levels   int `json:"levels,omitempty"`
	TriLevel int `json:"tri_level,omitempty"`
	// A is the planted block side (hidden-block).
	A int `json:"a,omitempty"`
	// T is the triangle count (disjoint-triangles).
	T int `json:"t,omitempty"`
	// K is the player count of a family that prescribes the per-player
	// assignment (dup-adversary).
	K int `json:"k,omitempty"`
	// Dup is the per-player replication probability (dup-adversary).
	Dup float64 `json:"dup,omitempty"`
	// ExpectTriangleFree asserts the family certifies triangle-freeness.
	ExpectTriangleFree bool `json:"expect_triangle_free,omitempty"`
	// ExpectEps asserts the built instance certifies at least this
	// farness (CertEps >= ExpectEps).
	ExpectEps float64 `json:"expect_eps,omitempty"`
}

// JSON returns the spec's JSON encoding. For a canonical spec this is the
// canonical wire form: parsing it back yields the identical Spec.
func (sp Spec) JSON() string {
	b, err := json.Marshal(sp)
	if err != nil {
		// Canonical specs contain only finite floats, so this is
		// unreachable for anything Canonical has accepted.
		panic(fmt.Sprintf("scenario: encode spec: %v", err))
	}
	return string(b)
}

// Instance is a built scenario: the graph plus its certificate and the
// canonical spec that regenerates it.
type Instance struct {
	// G is the built graph.
	G *graph.Graph
	// Planted is a family of pairwise edge-disjoint triangles of G (nil
	// when the family carries no farness certificate).
	Planted []graph.Triangle
	// CertEps is the certified farness |Planted| / |E| (0 without a
	// certificate).
	CertEps float64
	// TriangleFree reports that the construction guarantees G has no
	// triangle.
	TriangleFree bool
	// Players, when non-nil, is the family-prescribed per-player edge
	// assignment; consumers must use it instead of a split scheme.
	Players [][]graph.Edge
	// Spec is the canonical spec that (with the same seed) rebuilds this
	// instance.
	Spec Spec
}

// Family is one registered instance constructor.
type Family struct {
	// Name is the registry key.
	Name string
	// Doc is a one-line description for catalogs and usage text.
	Doc string
	// Params summarizes the accepted parameters and their defaults.
	Params string
	// TriangleFree marks families whose instances never contain a
	// triangle.
	TriangleFree bool
	// Certified marks families whose instances carry a planted
	// edge-disjoint triangle certificate (CertEps > 0).
	Certified bool
	// Prescribes marks families that fix the per-player edge assignment
	// (Instance.Players non-nil).
	Prescribes bool

	canon func(Spec) (Spec, error)
	build func(Spec, *rand.Rand) Instance
}

// families is the registry, keyed by name; populated at package
// initialization by the variable initializer in families.go.
var families = func() map[string]Family {
	m := make(map[string]Family, len(allFamilies))
	for _, f := range allFamilies {
		if _, dup := m[f.Name]; dup {
			panic(fmt.Sprintf("scenario: duplicate family %q", f.Name))
		}
		m[f.Name] = f
	}
	return m
}()

// Names returns the registered family names, sorted.
func Names() []string {
	out := make([]string, 0, len(families))
	for name := range families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Families returns every registered family, sorted by name.
func Families() []Family {
	names := Names()
	out := make([]Family, 0, len(names))
	for _, n := range names {
		out = append(out, families[n])
	}
	return out
}

// Lookup finds a family by name.
func Lookup(name string) (Family, bool) {
	f, ok := families[name]
	return f, ok
}

// Usage renders the registry as aligned usage text for the CLIs'
// list-scenarios output.
func Usage() string {
	var b strings.Builder
	width := 0
	for _, f := range Families() {
		if len(f.Name) > width {
			width = len(f.Name)
		}
	}
	for _, f := range Families() {
		tags := ""
		switch {
		case f.TriangleFree:
			tags = " [triangle-free]"
		case f.Certified && f.Prescribes:
			tags = " [certified-far, prescribes players]"
		case f.Certified:
			tags = " [certified-far]"
		}
		fmt.Fprintf(&b, "%-*s  %s%s\n", width, f.Name, f.Doc, tags)
		fmt.Fprintf(&b, "%-*s  params: %s\n", width, "", f.Params)
	}
	return b.String()
}

// Canonical fills the family's defaults, validates every parameter, and
// zeroes parameters the family does not use, so equal instances have
// byte-equal spec encodings. It is idempotent: Canonical(Canonical(sp))
// == Canonical(sp).
func Canonical(sp Spec) (Spec, error) {
	f, ok := Lookup(sp.Family)
	if !ok {
		return Spec{}, fmt.Errorf("scenario: unknown family %q (valid: %s)",
			sp.Family, strings.Join(Names(), ", "))
	}
	if err := finite(sp.D, sp.P, sp.Eps, sp.Alpha, sp.PIn, sp.POut, sp.Dup, sp.ExpectEps); err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", f.Name, err)
	}
	out, err := f.canon(sp)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", f.Name, err)
	}
	out.Family = f.Name
	if sp.ExpectEps < 0 || sp.ExpectEps > 1 {
		return Spec{}, fmt.Errorf("scenario: %s: expect_eps %v out of range [0, 1]", f.Name, sp.ExpectEps)
	}
	if sp.ExpectTriangleFree && sp.ExpectEps > 0 {
		return Spec{}, fmt.Errorf("scenario: %s: expect_triangle_free and expect_eps are mutually exclusive", f.Name)
	}
	if sp.ExpectTriangleFree && !f.TriangleFree {
		return Spec{}, fmt.Errorf("scenario: family %s does not certify triangle-freeness", f.Name)
	}
	if sp.ExpectEps > 0 && !f.Certified {
		return Spec{}, fmt.Errorf("scenario: family %s carries no farness certificate", f.Name)
	}
	out.ExpectTriangleFree = sp.ExpectTriangleFree
	out.ExpectEps = sp.ExpectEps
	return out, nil
}

// Parse turns a CLI/API scenario argument — a bare family name or a JSON
// spec object — into a canonical Spec.
func Parse(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	var sp Spec
	if strings.HasPrefix(s, "{") {
		dec := json.NewDecoder(strings.NewReader(s))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
		}
		if dec.More() {
			return Spec{}, fmt.Errorf("scenario: trailing data after spec object")
		}
	} else {
		sp.Family = s
	}
	return Canonical(sp)
}

// Build canonicalizes the spec and constructs the instance from the rng.
// Constructor panics (infeasible parameter combinations the cheap
// canonical checks cannot rule out, e.g. an edge budget that leaves no
// room for noise) surface as errors, so a hostile spec cannot take down a
// service worker.
func Build(sp Spec, rng *rand.Rand) (inst Instance, err error) {
	canon, cerr := Canonical(sp)
	if cerr != nil {
		return Instance{}, cerr
	}
	f := families[canon.Family]
	defer func() {
		if r := recover(); r != nil {
			inst = Instance{}
			err = fmt.Errorf("scenario: building %s: %v", canon.Family, r)
		}
	}()
	inst = f.build(canon, rng)
	inst.Spec = canon
	inst.TriangleFree = f.TriangleFree
	if canon.ExpectTriangleFree && !inst.TriangleFree {
		return Instance{}, fmt.Errorf("scenario: %s: instance is not certified triangle-free", canon.Family)
	}
	if canon.ExpectEps > 0 && inst.CertEps < canon.ExpectEps {
		return Instance{}, fmt.Errorf("scenario: %s: certified farness %.4f below expected %.4f",
			canon.Family, inst.CertEps, canon.ExpectEps)
	}
	return inst, nil
}

// finite rejects NaN and infinities (JSON cannot encode them, and the
// constructors' feasibility arithmetic assumes finite inputs).
func finite(vs ...float64) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite parameter %v", v)
		}
	}
	return nil
}

// defInt and defFloat apply the zero-means-default convention.
func defInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func defFloat(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// checkN validates a vertex count.
func checkN(n int) error {
	if n < 1 || n > MaxN {
		return fmt.Errorf("n %d out of range [1, %d]", n, MaxN)
	}
	return nil
}

// checkEdgeBudget rejects specs whose expected edge count exceeds the
// generation cap.
func checkEdgeBudget(expected float64) error {
	if expected > MaxGenEdges {
		return fmt.Errorf("expected edge count %.0f exceeds cap %d", expected, MaxGenEdges)
	}
	return nil
}

// checkProb validates a probability parameter.
func checkProb(name string, p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("%s %v out of range [0, 1]", name, p)
	}
	return nil
}
