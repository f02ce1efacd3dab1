package harmony

import (
	"repro/internal/blackboard"
)

// Session persistence: the paper's large integration problems "involve
// several dozen iterations" (§4.3) spread over days; the engine's user
// state — decisions and completion flags — round-trips through the
// blackboard's mapping annotations so a session can stop and resume
// (and so other tools see the is-complete/is-user-defined state,
// §5.1.2).

// SaveTo writes the engine's user decisions and completion flags into a
// blackboard mapping: decisions as user-defined ±1 cells, completion as
// row is-complete annotations. Machine scores are not written here — the
// publishing of machine cells is the match session's transactional job
// (see Result.Publish).
func (e *Engine) SaveTo(mp *blackboard.Mapping, tool string) error {
	for pair, d := range e.Decisions() {
		if err := mp.SetCell(pair[0], pair[1], pinScore(d.Accepted), true, tool); err != nil {
			return err
		}
	}
	for _, id := range e.CompleteIDs() {
		mp.SetRowComplete(id, true)
	}
	return nil
}

// LoadFrom restores user decisions and completion flags from a mapping
// into the engine: the mapping's decisions replace the engine's pins
// under the match sessions' one rule (every user-defined cell pins, its
// sign deciding accept or reject), and row is-complete annotations
// restore the progress state. It returns the number of decisions
// loaded. Call Run afterwards to re-score the rest.
func (e *Engine) LoadFrom(mp *blackboard.Mapping) int {
	syncPins(e, mp)
	for _, s := range e.ctx.Source.Elements() {
		if mp.RowComplete(s.ID) {
			e.complete[s.ID] = true
		}
	}
	return len(e.decisions)
}
