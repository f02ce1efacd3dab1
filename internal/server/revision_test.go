package server_test

import (
	"testing"

	"repro/internal/client"
)

// maxRevision is the highest revision among a mapping's cells.
func maxRevision(t *testing.T, c *client.Client, id string) int {
	t.Helper()
	cells, err := c.Cells(id)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	top := 0
	for _, cell := range cells {
		top = max(top, cell.Revision)
	}
	return top
}

// TestRevisionsContinueAfterRestartAndPromote: a decision written after
// WAL recovery, or on a replica just promoted, gets a revision above
// every revision the node already stores — the counter resumes, it does
// not restart from zero.
func TestRevisionsContinueAfterRestartAndPromote(t *testing.T) {
	t.Run("restart", func(t *testing.T) {
		dir := t.TempDir()
		c, _ := startServer(t, dir, false)
		id := loadPair(t, c)
		match, err := c.Match(id, 0.2)
		if err != nil {
			t.Fatalf("Match: %v", err)
		}
		top := maxRevision(t, c, id)
		c2, _ := startServer(t, dir, false)
		cell, err := c2.Decide(id, match.Cells[0].Source, match.Cells[0].Target, "accept")
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		if cell.Revision <= top {
			t.Errorf("decision after restart got revision %d; stored revisions reach %d", cell.Revision, top)
		}
	})
	t.Run("promote", func(t *testing.T) {
		pri := newNode(t, t.TempDir(), "")
		rep := newNode(t, t.TempDir(), pri.ts.URL)
		id := loadPair(t, pri.c)
		match, err := pri.c.Match(id, 0.2)
		if err != nil {
			t.Fatalf("Match: %v", err)
		}
		waitConverged(t, pri.ts.URL, rep.ts.URL)
		top := maxRevision(t, rep.c, id)
		pri.kill()
		if _, err := rep.c.Promote(); err != nil {
			t.Fatalf("Promote: %v", err)
		}
		cell, err := rep.c.Decide(id, match.Cells[0].Source, match.Cells[0].Target, "accept")
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		if cell.Revision <= top {
			t.Errorf("decision after promote got revision %d; stored revisions reach %d", cell.Revision, top)
		}
	})
}
