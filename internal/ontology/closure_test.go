package ontology

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

var allDegrees = []MatchDegree{MatchExact, MatchPlugin, MatchSubsume, MatchIntersection}

// spellings lists the ways an advertisement can write the concept uri
// so that o.Term resolves them to it: the URI and, inside the
// ontology's own namespace, the bare local name.
func spellings(o *Ontology, uri string) []string {
	if bare := localName(uri); bare != uri && o.Term(bare) == uri {
		return []string{uri, bare}
	}
	return []string{uri}
}

func localName(uri string) string {
	return uri[strings.LastIndexByte(uri, '#')+1:]
}

// checkClosure holds MatchingConcepts(requested, min) to the relation
// it prefilters for, over every declared concept of o in every
// spelling: complete (a satisfying concept is never missing) and, for
// the subsumption degrees, exact (every member satisfies or is the
// request itself). A superset is tolerated for MatchIntersection only.
func checkClosure(t *testing.T, r *Reasoner, requested string, min MatchDegree) {
	t.Helper()
	o := r.Ontology()
	got := r.MatchingConcepts(requested, min)
	if !sort.StringsAreSorted(got) {
		t.Errorf("MatchingConcepts(%s, %s) not sorted: %v", requested, min, got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Errorf("MatchingConcepts(%s, %s) lists %s twice", requested, min, got[i])
		}
	}
	if !slices.Contains(got, requested) || !slices.Contains(got, o.Term(requested)) {
		t.Errorf("MatchingConcepts(%s, %s) = %v: the request itself is missing", requested, min, got)
	}
	for _, c := range o.Classes() {
		for _, s := range spellings(o, c.URI) {
			if d := r.MatchConcepts(s, requested); d.Satisfies(min) && !slices.Contains(got, s) {
				t.Errorf("MatchingConcepts(%s, %s) misses %s, which matches at %s", requested, min, s, d)
			}
		}
	}
	if min == MatchIntersection {
		return
	}
	for _, s := range got {
		if d := r.MatchConcepts(s, requested); s != requested && !d.Satisfies(min) {
			t.Errorf("MatchingConcepts(%s, %s) lists %s, which only matches at %s", requested, min, s, d)
		}
	}
}

// TestMatchingConceptsIsTheMatchRelation: exhaustively, for every
// ordered pair of concepts of the combined ontology and every degree,
// MatchConcepts(c, requested).Satisfies(min) ⇒ c ∈
// MatchingConcepts(requested, min) — the discovery prefilter never
// loses a match.
func TestMatchingConceptsIsTheMatchRelation(t *testing.T) {
	o := Combined()
	r := NewReasoner(o)
	for _, requested := range o.Classes() {
		for _, min := range allDegrees {
			checkClosure(t, r, requested.URI, min)
		}
	}
	checkClosure(t, r, Thing, MatchSubsume)
}

func TestMatchingConceptsCases(t *testing.T) {
	uni := func(name string) string { return UniversityNS + "#" + name }
	r := NewReasoner(Combined())

	// A synonym is a spelling of the same concept; a plug-in child and
	// the subsuming parent are in, the disjoint and the merely
	// intersecting siblings are out.
	got := r.MatchingConcepts(uni("StudentLookup"), MatchSubsume)
	want := []string{uni("AcademicAction"), uni("StudentInformation"), uni("StudentLookup"), uni("TranscriptRetrieval"), Thing}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("closure of StudentLookup at subsume:\n got %v\nwant %v", got, want)
	}
	if got := r.MatchingConcepts(uni("StudentLookup"), MatchExact); !reflect.DeepEqual(got, []string{uni("StudentInformation"), uni("StudentLookup")}) {
		t.Errorf("closure of StudentLookup at exact = %v", got)
	}
	atIntersection := r.MatchingConcepts(uni("StudentInformation"), MatchIntersection)
	if !slices.Contains(atIntersection, uni("EnrollmentManagement")) {
		t.Errorf("intersection closure misses the sibling EnrollmentManagement: %v", atIntersection)
	}
	if slices.Contains(atIntersection, uni("GradeSubmission")) {
		t.Errorf("intersection closure lists the disjoint sibling GradeSubmission: %v", atIntersection)
	}

	// A URI the ontology does not know matches only itself.
	for _, min := range allDegrees {
		if got := r.MatchingConcepts("urn:elsewhere#Action", min); !reflect.DeepEqual(got, []string{"urn:elsewhere#Action"}) {
			t.Errorf("closure of an unknown URI at %s = %v, want itself only", min, got)
		}
		checkClosure(t, r, "urn:elsewhere#Action", min)
		checkClosure(t, r, "NoSuchConcept", min)
	}

	// Bare names: inside its own namespace an ontology accepts the local
	// name on either side, so the closure lists both spellings of every
	// member, whichever way the request was spelled.
	u := NewReasoner(University())
	full := u.MatchingConcepts(uni("EnrollmentManagement"), MatchSubsume)
	bare := u.MatchingConcepts("EnrollmentManagement", MatchSubsume)
	want = []string{"AcademicAction", "EnrollmentManagement", uni("AcademicAction"), uni("EnrollmentManagement"), Thing}
	sort.Strings(want)
	if !reflect.DeepEqual(full, want) || !reflect.DeepEqual(bare, want) {
		t.Errorf("bare-name closure:\n full %v\n bare %v\n want %v", full, bare, want)
	}
	for _, c := range u.Ontology().Classes() {
		for _, min := range allDegrees {
			checkClosure(t, u, c.URI, min)
			checkClosure(t, u, localName(c.URI), min)
		}
	}

	// A subClassOf cycle collapses into one concept: every class on it
	// is a spelling of the others.
	cyc := New("http://example.org/cyc")
	cyc.AddClass("A", SubOf("B"))
	cyc.AddClass("B", SubOf("C"))
	cyc.AddClass("C", SubOf("A"))
	cyc.AddClass("D", SubOf("A"))
	cyc.AddClass("E")
	cr := NewReasoner(cyc)
	ns := "http://example.org/cyc#"
	if got, want := cr.MatchingConcepts("B", MatchExact), []string{"A", "B", "C", ns + "A", ns + "B", ns + "C"}; !reflect.DeepEqual(got, want) {
		t.Errorf("closure over a cycle at exact = %v, want %v", got, want)
	}
	for _, c := range cyc.Classes() {
		for _, min := range allDegrees {
			checkClosure(t, cr, c.URI, min)
		}
	}
}

// TestMatchingConceptsConcurrentFirstCalls: the memo is filled by
// whoever asks first; racing first calls agree (run under -race).
func TestMatchingConceptsConcurrentFirstCalls(t *testing.T) {
	o := Combined()
	r := NewReasoner(o)
	want := map[string][]string{}
	ref := NewReasoner(o)
	for _, c := range o.Classes() {
		want[c.URI] = ref.MatchingConcepts(c.URI, MatchSubsume)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range o.Classes() {
				if got := r.MatchingConcepts(c.URI, MatchSubsume); !reflect.DeepEqual(got, want[c.URI]) {
					t.Errorf("closure of %s = %v, want %v", c.URI, got, want[c.URI])
				}
			}
		}()
	}
	wg.Wait()
}
