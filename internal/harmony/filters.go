package harmony

import (
	"repro/internal/match"
	"repro/internal/model"
)

// Filters are the headless equivalents of the Harmony GUI's clutter
// controls (paper §4.2): link filters decide whether a candidate
// correspondence is displayed; node filters decide whether a schema
// element is enabled ("a disabled element is grayed out and its links are
// not displayed").

// Link augments a correspondence with its display metadata.
type Link struct {
	match.Correspondence
	// UserDefined reports whether the confidence was pinned by the user.
	UserDefined bool
}

// LinkFilter is a predicate over candidate links.
type LinkFilter func(Link) bool

// NodeFilter is a predicate over schema elements; false disables the
// element and hides its links.
type NodeFilter func(*model.Element) bool

// ConfidenceFilter keeps links whose confidence is at least threshold —
// the paper's confidence slider.
func ConfidenceFilter(threshold float64) LinkFilter {
	return func(l Link) bool { return l.Confidence >= threshold }
}

// OriginFilter keeps either human-generated or machine-suggested links —
// the paper's second link filter.
func OriginFilter(humanOnly bool) LinkFilter {
	return func(l Link) bool { return l.UserDefined == humanOnly }
}

// DepthFilter enables elements at the given depth or above (closer to the
// root) — the paper's example: "using this filter, the engineer can focus
// exclusively on matching entities".
func DepthFilter(maxDepth int) NodeFilter {
	return func(e *model.Element) bool { return e.Depth() <= maxDepth }
}

// SubtreeFilter enables only elements inside the subtree rooted at root —
// "focus one's attention on the 'Facility' sub-schema".
func SubtreeFilter(root *model.Element) NodeFilter {
	return func(e *model.Element) bool { return e.InSubtree(root) }
}

// KindFilter enables only elements of the given kind.
func KindFilter(k model.Kind) NodeFilter {
	return func(e *model.Element) bool { return e.Kind == k }
}

// View selects which links are displayed. MaxConfidence applies the
// paper's third link filter: per enabled source element, only the
// maximal-confidence link(s) survive (ties possible).
type View struct {
	LinkFilters []LinkFilter
	// SourceNodeFilters and TargetNodeFilters disable elements per side.
	SourceNodeFilters []NodeFilter
	TargetNodeFilters []NodeFilter
	// MaxConfidence keeps only each source element's best link(s).
	MaxConfidence bool
}

// Links returns the links the view displays, in matrix row-major order.
// Only stored cells are candidates: a pair a blocking pattern pruned is
// "no evidence", never a link.
func (e *Engine) Links(v View) []Link {
	m := e.Matrix()
	enabledTgt := make([]bool, len(m.Targets))
	for j, t := range m.Targets {
		enabledTgt[j] = nodeEnabled(t, v.TargetNodeFilters)
	}

	var out []Link
	w := m.Walker()
	for i, s := range m.Sources {
		if !nodeEnabled(s, v.SourceNodeFilters) {
			continue
		}
		rowBest := -2.0
		if v.MaxConfidence {
			w.Row(i, func(_, j int, c float64) {
				if enabledTgt[j] && c > rowBest {
					rowBest = c
				}
			})
		}
		w.Row(i, func(_, j int, c float64) {
			if !enabledTgt[j] || (v.MaxConfidence && c < rowBest) {
				return
			}
			t := m.Targets[j]
			l := Link{
				Correspondence: match.Correspondence{Source: s, Target: t, Confidence: c},
				UserDefined:    e.IsUserDefined(s.ID, t.ID),
			}
			if linkPasses(l, v.LinkFilters) {
				out = append(out, l)
			}
		})
	}
	return out
}

func nodeEnabled(e *model.Element, fs []NodeFilter) bool {
	for _, f := range fs {
		if !f(e) {
			return false
		}
	}
	return true
}

func linkPasses(l Link, fs []LinkFilter) bool {
	for _, f := range fs {
		if !f(l) {
			return false
		}
	}
	return true
}
