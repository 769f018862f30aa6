package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/core"
	"whisper/internal/ontology"
	"whisper/internal/proxy"
	"whisper/internal/simnet"
)

// DiscoveryOptions configures experiment E5: discovery precision and
// recall, syntactic vs. semantic. The paper (§3.1, §4.3) motivates
// semantic advertisements with the "high recall and low precision"
// of syntactic-only search; this experiment quantifies the claim on a
// corpus with synonym and homonym traps.
type DiscoveryOptions struct {
	// MinDegree is the semantic acceptance threshold.
	MinDegree ontology.MatchDegree
}

func (o *DiscoveryOptions) applyDefaults() {
	if o.MinDegree == 0 {
		o.MinDegree = ontology.MatchSubsume
	}
}

// corpusEntry is one advertised service in the evaluation corpus.
type corpusEntry struct {
	// Name is the syntactic operation name an attribute search sees.
	Name string
	// Sig is the semantic signature the advertisement carries.
	Sig ontology.Signature
	// Relevant is the ground-truth label for the student-information
	// request.
	Relevant bool
}

// discoveryCorpus builds the evaluation corpus against the combined
// ontology. Traps:
//
//   - synonym advertisements use equivalent concepts under different
//     names (syntactic search misses them → recall loss),
//   - homonym advertisements reuse the "StudentInformation" operation
//     name for semantically disjoint functionality (syntactic search
//     returns them → precision loss).
func discoveryCorpus() []corpusEntry {
	u := ontology.University()
	b := ontology.B2B()
	return []corpusEntry{
		// Exact match, exact name.
		{
			Name: "StudentInformation",
			Sig: ontology.Signature{
				Action:  ontology.ConceptStudentInformation,
				Inputs:  []string{ontology.ConceptStudentID},
				Outputs: []string{ontology.ConceptStudentInfo},
			},
			Relevant: true,
		},
		// Synonym concepts, different name: semantic hit, syntactic miss.
		{
			Name: "PupilLookup",
			Sig: ontology.Signature{
				Action:  u.Term("StudentLookup"),
				Inputs:  []string{u.Term("MatriculationNumber")},
				Outputs: []string{u.Term("StudentRecord")},
			},
			Relevant: true,
		},
		// More specific service (plugin match), different name.
		{
			Name: "TranscriptFetch",
			Sig: ontology.Signature{
				Action:  u.Term("TranscriptRetrieval"),
				Inputs:  []string{ontology.ConceptStudentID},
				Outputs: []string{u.Term("TranscriptInfo")},
			},
			Relevant: true,
		},
		// Homonym: same operation name, disjoint semantics (grade
		// submission writes grades, it does not retrieve records).
		{
			Name: "StudentInformation",
			Sig: ontology.Signature{
				Action:  u.Term("GradeSubmission"),
				Inputs:  []string{ontology.ConceptStudentID},
				Outputs: []string{u.Term("GradeReport")},
			},
			Relevant: false,
		},
		// Homonym in another domain: insurance "information" service.
		{
			Name: "StudentInformationInsurance",
			Sig: ontology.Signature{
				Action:  b.Term("ClaimProcessing"),
				Inputs:  []string{b.Term("ClaimID")},
				Outputs: []string{b.Term("ClaimStatus")},
			},
			Relevant: false,
		},
		// Employee directory: related name, disjoint output concept.
		{
			Name: "EmployeeInformation",
			Sig: ontology.Signature{
				Action:  u.Term("StudentInformation"), // mislabeled action
				Inputs:  []string{u.Term("EmployeeID")},
				Outputs: []string{u.Term("EmployeeInfo")},
			},
			Relevant: false,
		},
		// Unrelated services.
		{
			Name: "LoanDecision",
			Sig: ontology.Signature{
				Action:  b.Term("LoanApproval"),
				Inputs:  []string{b.Term("LoanApplication")},
				Outputs: []string{b.Term("LoanDecision")},
			},
			Relevant: false,
		},
		{
			Name: "CarePlanner",
			Sig: ontology.Signature{
				Action:  b.Term("CarePlanning"),
				Inputs:  []string{b.Term("PatientID")},
				Outputs: []string{b.Term("TreatmentPlan")},
			},
			Relevant: false,
		},
	}
}

// prf computes precision, recall and F1.
func prf(tp, fp, fn int) (p, r, f1 float64) {
	if tp+fp > 0 {
		p = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		r = float64(tp) / float64(tp+fn)
	}
	if p+r > 0 {
		f1 = 2 * p * r / (p + r)
	}
	return p, r, f1
}

// DiscoveryQuality runs E5 and reports precision/recall/F1 for the
// syntactic keyword matcher and the semantic matcher.
func DiscoveryQuality(ctx context.Context, opts DiscoveryOptions) (*Table, error) {
	opts.applyDefaults()
	reasoner := ontology.NewReasoner(ontology.Combined())
	corpus := discoveryCorpus()
	request := StudentSignature()

	// Syntactic baseline: keyword match on the operation name, the
	// only information WSDL exposes (paper §3.1).
	synTP, synFP, synFN := 0, 0, 0
	// Semantic: signature matching at the configured threshold.
	semTP, semFP, semFN := 0, 0, 0

	for _, e := range corpus {
		syntacticHit := strings.Contains(strings.ToLower(e.Name), "studentinformation")
		semanticHit := reasoner.MatchSignature(e.Sig, request).Degree.Satisfies(opts.MinDegree)
		switch {
		case syntacticHit && e.Relevant:
			synTP++
		case syntacticHit && !e.Relevant:
			synFP++
		case !syntacticHit && e.Relevant:
			synFN++
		}
		switch {
		case semanticHit && e.Relevant:
			semTP++
		case semanticHit && !e.Relevant:
			semFP++
		case !semanticHit && e.Relevant:
			semFN++
		}
	}

	t := &Table{
		Title:   fmt.Sprintf("Discovery quality on %d-advertisement corpus (threshold=%v)", len(corpus), opts.MinDegree),
		Columns: []string{"matcher", "precision", "recall", "F1", "TP", "FP", "FN"},
	}
	p, r, f1 := prf(synTP, synFP, synFN)
	t.AddRow("syntactic (operation name)", fmt.Sprintf("%.2f", p), fmt.Sprintf("%.2f", r),
		fmt.Sprintf("%.2f", f1), fmt.Sprintf("%d", synTP), fmt.Sprintf("%d", synFP), fmt.Sprintf("%d", synFN))
	p, r, f1 = prf(semTP, semFP, semFN)
	t.AddRow("semantic (WSDL-S + ontology)", fmt.Sprintf("%.2f", p), fmt.Sprintf("%.2f", r),
		fmt.Sprintf("%.2f", f1), fmt.Sprintf("%d", semTP), fmt.Sprintf("%d", semFP), fmt.Sprintf("%d", semFN))
	t.AddNote("paper §4.3: syntactic discovery retrieves peers with \"low precision (many b-peers you do not want) and low recall (missed the b-peers you really need)\"")
	return t, nil
}

// DiscoveryQualityLive runs the same comparison through the actual
// system: every corpus entry is deployed as a live b-peer group whose
// semantic advertisement reaches the rendezvous; one SWS-proxy then
// discovers via the reasoner (FindPeerGroupAdv) and via the syntactic
// name match (FindByName), and precision/recall are computed from
// what each returns.
func DiscoveryQualityLive(ctx context.Context, opts DiscoveryOptions) (*Table, error) {
	opts.applyDefaults()
	bed, err := NewTestBed(ClusterOptions{Seed: 1, Latency: simnet.ZeroLatency()})
	if err != nil {
		return nil, err
	}
	defer func() { _ = bed.Close() }()

	corpus := discoveryCorpus()
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	// Deploy one single-replica group per corpus entry. Group names
	// must be unique per deployment, so duplicates get a suffix; the
	// syntactic searcher uses a prefix wildcard, matching how a
	// keyword search over WSDL operation names behaves.
	relevantByGID := make(map[string]bool)
	used := make(map[string]int)
	for i, e := range corpus {
		gname := e.Name
		if used[e.Name] > 0 {
			gname = fmt.Sprintf("%s#%d", e.Name, i)
		}
		used[e.Name]++
		g, derr := bed.Dep.DeployGroup(ctx, core.GroupSpec{
			Name:      gname,
			Signature: e.Sig,
			Handler: bpeer.HandlerFunc(func(_ context.Context, _ string, _ []byte) ([]byte, error) {
				return []byte("<ok/>"), nil
			}),
			Count: 1,
		})
		if derr != nil {
			return nil, fmt.Errorf("bench: deploy corpus group %q: %w", gname, derr)
		}
		relevantByGID[string(g.ID())] = e.Relevant
	}

	p, err := bed.NewProxy("e5-proxy", core.ProxyOptions{MinDegree: opts.MinDegree})
	if err != nil {
		return nil, err
	}

	// Semantic discovery through the proxy.
	semTP, semFP := 0, 0
	matches, err := p.FindPeerGroupAdv(ctx, StudentSignature())
	if err != nil && !errors.Is(err, proxy.ErrNoMatch) {
		return nil, fmt.Errorf("bench: semantic discovery: %w", err)
	}
	semFound := make(map[string]bool)
	for _, gm := range matches {
		semFound[string(gm.Adv.GID)] = true
		if relevantByGID[string(gm.Adv.GID)] {
			semTP++
		} else {
			semFP++
		}
	}
	// Syntactic discovery: search by the operation name, counting a
	// corpus entry as retrieved when its original name matches.
	synTP, synFP := 0, 0
	synFoundAdvs, err := p.FindByName(ctx, "StudentInformation*")
	if err != nil {
		return nil, fmt.Errorf("bench: syntactic discovery: %w", err)
	}
	synFound := make(map[string]bool)
	for _, adv := range synFoundAdvs {
		gid := string(adv.GID)
		if synFound[gid] {
			continue
		}
		synFound[gid] = true
		if relevantByGID[gid] {
			synTP++
		} else {
			synFP++
		}
	}
	relevantTotal := 0
	for _, rel := range relevantByGID {
		if rel {
			relevantTotal++
		}
	}
	semFN := relevantTotal - semTP
	synFN := relevantTotal - synTP

	t := &Table{
		Title:   "Discovery quality — live through the SWS-proxy and rendezvous",
		Columns: []string{"matcher", "precision", "recall", "F1", "TP", "FP", "FN"},
	}
	pV, rV, f1 := prf(synTP, synFP, synFN)
	t.AddRow("syntactic (FindByName)", fmt.Sprintf("%.2f", pV), fmt.Sprintf("%.2f", rV),
		fmt.Sprintf("%.2f", f1), fmt.Sprintf("%d", synTP), fmt.Sprintf("%d", synFP), fmt.Sprintf("%d", synFN))
	pV, rV, f1 = prf(semTP, semFP, semFN)
	t.AddRow("semantic (FindPeerGroupAdv)", fmt.Sprintf("%.2f", pV), fmt.Sprintf("%.2f", rV),
		fmt.Sprintf("%.2f", f1), fmt.Sprintf("%d", semTP), fmt.Sprintf("%d", semFP), fmt.Sprintf("%d", semFN))
	t.AddNote("same corpus as the matcher-level table, but deployed as real groups and discovered through the rendezvous")
	return t, nil
}

func runDiscovery(ctx context.Context, _ Flags) (*Report, error) {
	t, err := DiscoveryQuality(ctx, DiscoveryOptions{})
	if err != nil {
		return nil, err
	}
	return NewReport("discovery", t), nil
}

func runDiscoveryLive(ctx context.Context, _ Flags) (*Report, error) {
	t, err := DiscoveryQualityLive(ctx, DiscoveryOptions{})
	if err != nil {
		return nil, err
	}
	return NewReport("discovery-live", t), nil
}
