package harmony

import (
	"repro/internal/model"
)

// Iterative development support (paper §4.3): marking sub-schemata
// complete and tracking overall progress across "several dozen
// iterations".

// MarkSubtreeComplete marks the subtree rooted at the given source
// element as finished: every currently visible link involving a subtree
// element is accepted, every other link from a subtree element is
// rejected, and the elements are flagged complete so the progress bar
// advances. visibleThreshold plays the confidence slider's role — links
// at or above it count as "currently visible" (§4.3: "it accepts every
// link pertaining to that sub-tree as accepted (if currently visible), or
// rejected (otherwise)"). A pair a blocking pattern pruned is no link,
// so it stays undecided.
func (e *Engine) MarkSubtreeComplete(root *model.Element, visibleThreshold float64) {
	m := e.Matrix()
	w := m.Walker()
	for _, s := range model.Subtree(root) {
		i := m.SourceIndex(s.ID)
		if i < 0 {
			continue // the schema root itself has no row
		}
		// Accept and Reject write only the visited cell, which the
		// walker allows.
		w.Row(i, func(_, j int, v float64) {
			t := m.Targets[j]
			if e.IsUserDefined(s.ID, t.ID) {
				return // existing decisions stand
			}
			if v >= visibleThreshold {
				_ = e.Accept(s.ID, t.ID)
			} else {
				_ = e.Reject(s.ID, t.ID)
			}
		})
		e.complete[s.ID] = true
	}
}

// IsComplete reports whether a source element has been marked complete —
// the is-complete annotation of §5.1.2.
func (e *Engine) IsComplete(srcID string) bool { return e.complete[srcID] }

// Progress returns the fraction of source elements marked complete in
// [0,1] — the §4.3 progress bar "that tracks how close the engineer is to
// a complete set of correspondences".
func (e *Engine) Progress() float64 {
	total := len(e.ctx.Source.Elements())
	if total == 0 {
		return 1
	}
	done := 0
	for _, s := range e.ctx.Source.Elements() {
		if e.complete[s.ID] {
			done++
		}
	}
	return float64(done) / float64(total)
}

// CompleteIDs returns the IDs of all complete source elements.
func (e *Engine) CompleteIDs() []string {
	var out []string
	for _, s := range e.ctx.Source.Elements() {
		if e.complete[s.ID] {
			out = append(out, s.ID)
		}
	}
	return out
}
