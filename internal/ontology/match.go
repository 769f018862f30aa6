package ontology

import (
	"fmt"
	"sort"
	"strings"
)

// MatchDegree grades how well an advertised concept satisfies a
// requested concept, following the classic semantic-matchmaking
// hierarchy (exact > plugin > subsume > intersection > fail) used by
// METEOR-S style discovery, which the paper builds on.
type MatchDegree int

// Match degrees, strongest first.
const (
	// MatchExact: advertised and requested concepts are equivalent.
	MatchExact MatchDegree = iota + 1
	// MatchPlugin: the advertised concept is more specific than the
	// requested one (advertised ⊑ requested); the provider delivers at
	// least what was asked for.
	MatchPlugin
	// MatchSubsume: the advertised concept is more general than the
	// requested one (requested ⊑ advertised); the provider may deliver
	// what was asked for.
	MatchSubsume
	// MatchIntersection: the concepts share a common ancestor below
	// owl:Thing and are not disjoint.
	MatchIntersection
	// MatchFail: no semantic relationship.
	MatchFail
)

func (d MatchDegree) String() string {
	switch d {
	case MatchExact:
		return "exact"
	case MatchPlugin:
		return "plugin"
	case MatchSubsume:
		return "subsume"
	case MatchIntersection:
		return "intersection"
	case MatchFail:
		return "fail"
	default:
		return fmt.Sprintf("MatchDegree(%d)", int(d))
	}
}

// Score maps a degree to a numeric quality in [0,1] for ranking.
func (d MatchDegree) Score() float64 {
	switch d {
	case MatchExact:
		return 1.0
	case MatchPlugin:
		return 0.8
	case MatchSubsume:
		return 0.6
	case MatchIntersection:
		return 0.3
	default:
		return 0
	}
}

// Satisfies reports whether the degree is at least as strong as min.
func (d MatchDegree) Satisfies(min MatchDegree) bool { return d <= min && d != 0 }

// MatchConcepts grades advertised against requested.
func (r *Reasoner) MatchConcepts(advertised, requested string) MatchDegree {
	switch {
	case r.AreEquivalent(advertised, requested):
		return MatchExact
	case r.IsSubClassOf(advertised, requested):
		return MatchPlugin
	case r.IsSubClassOf(requested, advertised):
		return MatchSubsume
	case r.AreDisjoint(advertised, requested):
		return MatchFail
	}
	lca, depth := r.LeastCommonAncestor(advertised, requested)
	if depth > 0 && lca != Thing {
		return MatchIntersection
	}
	return MatchFail
}

// SignatureMatch is the result of matching a full service signature
// (action + inputs + outputs) against a request.
type SignatureMatch struct {
	// Degree is the weakest degree across all matched pairs; the
	// signature is only as good as its weakest component.
	Degree MatchDegree
	// Score is the average pairwise score, for ranking candidates of
	// equal Degree.
	Score float64
	// Pairs records each requested concept and the advertised concept
	// chosen for it.
	Pairs []ConceptPair
}

// ConceptPair records one requested-to-advertised concept assignment.
type ConceptPair struct {
	Requested  string
	Advertised string
	Degree     MatchDegree
}

// Signature is the semantic signature of a service operation: the
// functional concept (action) plus input and output data concepts,
// exactly the three annotation points WSDL-S attaches to an operation.
type Signature struct {
	// Action is the functional-semantics concept URI (§2.3).
	Action string
	// Inputs are data-semantics concept URIs for the operation inputs.
	Inputs []string
	// Outputs are data-semantics concept URIs for the outputs.
	Outputs []string
}

// Clone returns a deep copy of the signature.
func (s Signature) Clone() Signature {
	out := Signature{Action: s.Action}
	out.Inputs = append([]string(nil), s.Inputs...)
	out.Outputs = append([]string(nil), s.Outputs...)
	return out
}

// Equal reports structural equality (order-insensitive on concept
// sets).
func (s Signature) Equal(o Signature) bool {
	if s.Action != o.Action || len(s.Inputs) != len(o.Inputs) || len(s.Outputs) != len(o.Outputs) {
		return false
	}
	eq := func(a, b []string) bool {
		as := append([]string(nil), a...)
		bs := append([]string(nil), b...)
		sort.Strings(as)
		sort.Strings(bs)
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
		return true
	}
	return eq(s.Inputs, o.Inputs) && eq(s.Outputs, o.Outputs)
}

// MatchSignature grades an advertised signature against a requested
// one. Direction matters and follows matchmaking convention:
//
//   - action: graded directly (advertised vs. requested),
//   - outputs: the provider must produce what the requester wants, so
//     each requested output is matched against the best advertised
//     output,
//   - inputs: the requester must be able to feed the provider, so each
//     advertised input is matched against the best requested input
//     (with roles flipped: the requester's concept is the "advertised"
//     side of the pairwise test).
//
// The overall degree is the weakest pairwise degree; an unmatchable
// concept yields MatchFail.
func (r *Reasoner) MatchSignature(advertised, requested Signature) SignatureMatch {
	result := SignatureMatch{Degree: MatchExact}
	var total float64
	var count int

	consider := func(requestedConcept, advertisedConcept string, d MatchDegree) {
		result.Pairs = append(result.Pairs, ConceptPair{
			Requested:  requestedConcept,
			Advertised: advertisedConcept,
			Degree:     d,
		})
		if d > result.Degree {
			result.Degree = d
		}
		total += d.Score()
		count++
	}

	// Functional semantics.
	consider(requested.Action, advertised.Action, r.MatchConcepts(advertised.Action, requested.Action))

	// Outputs: every requested output needs a best advertised output.
	for _, want := range requested.Outputs {
		best, bestDeg := "", MatchFail
		for _, have := range advertised.Outputs {
			if d := r.MatchConcepts(have, want); d < bestDeg || best == "" {
				best, bestDeg = have, d
			}
		}
		consider(want, best, bestDeg)
	}

	// Inputs: every advertised (required) input must be suppliable
	// from the requested inputs.
	for _, need := range advertised.Inputs {
		best, bestDeg := "", MatchFail
		for _, have := range requested.Inputs {
			if d := r.MatchConcepts(have, need); d < bestDeg || best == "" {
				best, bestDeg = have, d
			}
		}
		consider(best, need, bestDeg)
	}

	if count > 0 {
		result.Score = total / float64(count)
	}
	if result.Degree == MatchFail {
		result.Score = 0
	}
	return result
}

// closureKey addresses one memoised MatchingConcepts result.
type closureKey struct {
	requested string
	min       MatchDegree
}

// MatchingConcepts returns, sorted, every spelling of every concept c
// the ontology declares with MatchConcepts(c, requested).Satisfies(min),
// plus requested itself: verbatim and as Ontology.Term spells it. A
// spelling of a URI is the URI and, when it lives in the ontology's own
// namespace, the bare local name Term resolves to it.
//
// A signature's degree is its weakest pair, so an advertisement whose
// action is spelled outside this set cannot satisfy min: the set is the
// complete list of exact "action" index keys worth asking a discovery
// index for. Results for declared concepts are memoised on the reasoner
// (there are finitely many); callers must not modify the slice.
func (r *Reasoner) MatchingConcepts(requested string, min MatchDegree) []string {
	key := closureKey{requested: requested, min: min}
	r.closureMu.RLock()
	out, ok := r.closures[key]
	r.closureMu.RUnlock()
	if ok {
		return out
	}
	full := r.onto.Term(requested)
	seen := map[string]bool{requested: true}
	out = []string{requested}
	add := func(uri string) {
		for _, s := range [...]string{uri, r.bareName(uri)} {
			if s != "" && !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	add(full)
	if !r.Knows(full) {
		// An undeclared concept matches nothing but itself; there is no
		// bound on how many a caller can name, so they are not memoised.
		sort.Strings(out)
		return out
	}
	for uri := range r.rep {
		if r.MatchConcepts(uri, full).Satisfies(min) {
			add(uri)
		}
	}
	sort.Strings(out)
	r.closureMu.Lock()
	r.closures[key] = out
	r.closureMu.Unlock()
	return out
}

// bareName returns the local name Ontology.Term expands to uri, or ""
// when uri is outside the ontology's own namespace.
func (r *Reasoner) bareName(uri string) string {
	name, ok := strings.CutPrefix(uri, r.onto.BaseURI+"#")
	if !ok || name == "" || strings.ContainsAny(name, ":/#") {
		return ""
	}
	return name
}
