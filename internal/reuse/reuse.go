// Package reuse implements mapping reuse: a match voter that consults
// the integration blackboard's mapping library (paper §5.1.3: "the
// blackboard should maintain a library of mappings, partly to facilitate
// mapping reuse, but also as a resource for some matching tools").
//
// The LibraryVoter looks up prior engineer decisions: if elements with
// the same normalized names were accepted (or rejected) as a
// correspondence in any stored mapping, the voter votes accordingly.
// Past human judgment is strong evidence, so the magnitudes are large
// and the merger's magnitude weighting lets them dominate.
package reuse

import (
	"strings"

	"repro/internal/blackboard"
	"repro/internal/match"
)

// LibraryVoter votes from prior decisions stored in a blackboard.
type LibraryVoter struct {
	// BB is the blackboard whose mapping library is consulted.
	BB *blackboard.Blackboard
	// MinConfidence filters library cells: only user-defined cells at or
	// above it count as accepted precedents (default 1.0, i.e. explicit
	// accepts only).
	MinConfidence float64
}

// Name implements match.Voter.
func (LibraryVoter) Name() string { return "mapping-library" }

// precedent is remembered evidence about a normalized name pair.
type precedent struct {
	accepts, rejects int
}

// Vote implements match.Voter.
func (v LibraryVoter) Vote(ctx *match.Context) *match.Matrix {
	m := ctx.NewMatrix()
	if v.BB == nil {
		return m // abstain without a library
	}
	minConf := v.MinConfidence
	if minConf == 0 {
		minConf = 1.0
	}

	// Harvest precedents from every stored mapping.
	precedents := map[[2]string]*precedent{}
	for _, id := range v.BB.Mappings() {
		mp, err := v.BB.GetMapping(id)
		if err != nil {
			continue
		}
		for _, cell := range mp.UserCells() {
			k := [2]string{normalizeKey(tail(cell.SourceID)), normalizeKey(tail(cell.TargetID))}
			p := precedents[k]
			if p == nil {
				p = &precedent{}
				precedents[k] = p
			}
			switch {
			case cell.Confidence >= minConf:
				p.accepts++
			case cell.Confidence <= -minConf:
				p.rejects++
			}
		}
	}
	if len(precedents) == 0 {
		return m
	}

	// Stored cells only: with blocking enabled a precedent outside the
	// candidate pattern cannot resurrect the pair — an accepted trade-off
	// (sparse mode treats pruned pairs as no-evidence everywhere).
	m.Each(func(i, j int, _ float64) {
		s, t := m.Sources[i], m.Targets[j]
		p := precedents[[2]string{normalizeKey(s.Name), normalizeKey(t.Name)}]
		if p == nil {
			return
		}
		switch {
		case p.accepts > 0 && p.rejects == 0:
			m.SetAt(i, j, 0.9)
		case p.rejects > 0 && p.accepts == 0:
			m.SetAt(i, j, -0.9)
		default:
			// Conflicting precedents: weak positive (accepts usually
			// generalize better than rejects, which are often local).
			m.SetAt(i, j, 0.2)
		}
	})
	return m
}

// VotersWithLibrary returns the default Harmony panel extended with the
// library voter over the given blackboard.
func VotersWithLibrary(bb *blackboard.Blackboard) []match.Voter {
	return append(match.DefaultVoters(), LibraryVoter{BB: bb})
}

// RecordDecisions stores an engine's accepted/rejected pairs into a
// mapping so later sessions can reuse them. It is the bridging call a
// matcher tool makes when the engineer finishes a session.
func RecordDecisions(mp *blackboard.Mapping, decisions map[[2]string]bool, tool string) error {
	for pair, accepted := range decisions {
		conf := -1.0
		if accepted {
			conf = 1.0
		}
		if err := mp.SetCell(pair[0], pair[1], conf, true, tool); err != nil {
			return err
		}
	}
	return nil
}

func tail(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

func normalizeKey(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			out = append(out, c+32)
		case c == '_' || c == '-' || c == '.':
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

var _ match.Voter = LibraryVoter{}
