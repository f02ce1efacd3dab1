package server_test

// The satellite race test: two HTTP clients hammer accept/reject on the
// same mapping concurrently (run under -race). The server must serialize
// them into distinct blackboard revisions and the event feed must
// deliver exactly one event per decision, in seq order, to a third
// observer client.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
)

func TestTwoClientsRacingDecisions(t *testing.T) {
	// Three independent clients against one server: two writers with
	// their own sessions, plus a feed observer.
	c1, _ := startServer(t, "", false)
	c2 := client.New(c1.BaseURL())
	observer := client.New(c1.BaseURL())

	if _, err := c1.OpenSession("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.OpenSession("bob"); err != nil {
		t.Fatal(err)
	}

	id := loadPair(t, c1)
	match, err := c1.Match(id, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if match.Published < 2 {
		t.Fatalf("need at least 2 matched cells to race over, got %d", match.Published)
	}
	// Cursor past the setup noise: only decision events from here on.
	setupHead := uint64(3 + match.Published + 1)

	// Both clients re-decide every cell N times: alice accepts, bob
	// rejects, interleaving freely. Every call must succeed (the server
	// queues writers; nobody may observe ErrTxnActive), and every call
	// must produce exactly one mapping-cell event.
	const rounds = 8
	cells := match.Cells
	decisionsPerClient := rounds * len(cells)
	var wg sync.WaitGroup
	errs := make(chan error, 2*decisionsPerClient)
	revs := make(chan int, 2*decisionsPerClient)
	race := func(c *client.Client, verdict string) {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for _, cell := range cells {
				info, err := c.Decide(id, cell.Source, cell.Target, verdict)
				if err != nil {
					errs <- fmt.Errorf("%s %s↔%s: %w", verdict, cell.Source, cell.Target, err)
					return
				}
				revs <- info.Revision
			}
		}
	}
	wg.Add(2)
	go race(c1, "accept")
	go race(c2, "reject")
	wg.Wait()
	close(errs)
	close(revs)
	for err := range errs {
		t.Fatal(err)
	}

	// Serialized revisions: every successful decision got its own
	// blackboard revision — no two writes share one.
	seen := map[int]bool{}
	for rev := range revs {
		if seen[rev] {
			t.Fatalf("two decisions share revision %d — writes were not serialized", rev)
		}
		seen[rev] = true
	}
	if len(seen) != 2*decisionsPerClient {
		t.Fatalf("got %d distinct revisions, want %d", len(seen), 2*decisionsPerClient)
	}

	// Exact event delivery: the observer drains the feed from the
	// post-setup cursor and must see exactly one mapping-cell event per
	// decision, contiguous seqs, no gap.
	want := 2 * decisionsPerClient
	got := 0
	cursor := setupHead
	lastSeq := setupHead
	for got < want {
		evs, next, gap, err := observer.Events(cursor, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if gap {
			t.Fatal("feed gap during race")
		}
		if len(evs) == 0 {
			t.Fatalf("feed dried up at %d/%d decision events", got, want)
		}
		for _, e := range evs {
			if e.Seq != lastSeq+1 {
				t.Fatalf("seq jump %d → %d", lastSeq, e.Seq)
			}
			lastSeq = e.Seq
			if e.Kind != "mapping-cell" {
				t.Fatalf("unexpected %s event during decision race", e.Kind)
			}
			if e.Tool == "" || e.Tool == "_feed" {
				t.Fatalf("event with bad provenance: %+v", e)
			}
			got++
		}
		cursor = next
	}
	if got != want {
		t.Fatalf("delivered %d decision events, want exactly %d", got, want)
	}

	// Final state is one of the two verdicts for every cell, set by a
	// session tool — never a torn in-between value.
	final, err := observer.Cells(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range final {
		if cell.Confidence != 1 && cell.Confidence != -1 {
			t.Fatalf("cell %s↔%s has torn confidence %v", cell.Source, cell.Target, cell.Confidence)
		}
		if !cell.UserDefined {
			t.Fatalf("cell %s↔%s lost its user-defined mark", cell.Source, cell.Target)
		}
	}
}

// TestViewsRaceDecidesAndPublishes runs full views (GET cells) against
// two deciding clients and a rematching one (each rematch publishes),
// so views copy cell tables that decides and publishes carry. Every
// view must succeed and be sorted; once the writers stop, a view must
// hold exactly the stored cells. Run it under -race.
func TestViewsRaceDecidesAndPublishes(t *testing.T) {
	c, srv := startServer(t, "", false)
	id := loadPair(t, c)
	match, err := c.Match(id, 0.1)
	if err != nil || len(match.Cells) < 4 {
		t.Fatalf("Match: %d cells, %v", len(match.Cells), err)
	}
	var writers, viewers sync.WaitGroup
	errs := make(chan error, 64)
	done := make(chan struct{})
	for w, verdict := range []string{"accept", "reject"} {
		writers.Add(1)
		go func(c *client.Client, w int, verdict string) {
			defer writers.Done()
			for k := 0; k < 40; k++ {
				cell := match.Cells[(k*3+w)%len(match.Cells)]
				if _, err := c.Decide(id, cell.Source, cell.Target, verdict); err != nil {
					errs <- err
					return
				}
			}
		}(clientFor(c), w, verdict)
	}
	writers.Add(1)
	go func(c *client.Client) {
		defer writers.Done()
		for k := 0; k < 8; k++ {
			if _, err := c.Rematch(id, 0.05+0.02*float64(k), nil, nil); err != nil {
				errs <- err
				return
			}
		}
	}(clientFor(c))
	for v := 0; v < 2; v++ {
		viewers.Add(1)
		go func(c *client.Client) {
			defer viewers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				cells, err := c.Cells(id)
				if err != nil {
					errs <- err
					return
				}
				for i := 1; i < len(cells); i++ {
					a, b := cells[i-1], cells[i]
					if a.Source > b.Source || a.Source == b.Source && a.Target > b.Target {
						errs <- fmt.Errorf("view not sorted at %d: %+v before %+v", i, a, b)
						return
					}
				}
			}
		}(clientFor(c))
	}
	writers.Wait()
	close(done)
	viewers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiet again: the view must hold exactly the stored cells, which
	// GetCell reads from the triples.
	view, err := c.Cells(id)
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := srv.Workspaces().Get("default")
	mp, err := ws.Blackboard().GetMapping(id)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Len() != len(view) {
		t.Fatalf("view has %d cells, the mapping %d", len(view), mp.Len())
	}
	for _, cell := range view {
		c, ok := mp.GetCell(cell.Source, cell.Target)
		if !ok || c.Confidence != cell.Confidence || c.UserDefined != cell.UserDefined || c.SetBy != cell.SetBy || c.Revision != cell.Revision {
			t.Fatalf("view holds %+v, the triples %+v (ok %v)", cell, c, ok)
		}
	}
}
