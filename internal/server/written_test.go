package server_test

// A match or rematch answers with the cells its publish wrote and the
// revision after them; GET cells?since= catches a client up. These
// tests pin the written set exactly, the catch-up read, and the publish
// attributes of the transaction span.

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/harmony"
	"repro/internal/server"
)

type pair = [2]string

func byPair(cells []server.CellInfo) map[pair]server.CellInfo {
	out := make(map[pair]server.CellInfo, len(cells))
	for _, c := range cells {
		out[pair{c.Source, c.Target}] = c
	}
	return out
}

// checkPublishedLikeCold checks the publish of a match or rematch of
// mapping id (src → tgt) at threshold, given the mapping's cells before
// it, against a cold match of a fresh mapping over the same schemas at
// threshold -1, which scores every pair of their current elements.
// The publish must have written exactly the links whose cell was absent
// or held another machine score, each read back as stored, and counted
// every link. Afterwards each link's cell holds its cold score bit for
// bit unless decided, and every other cell — on a dropped element,
// below the threshold cold, or a decision — is as it was before.
func checkPublishedLikeCold(t *testing.T, c *client.Client, id, src, tgt string, threshold float64,
	before []server.CellInfo, written []server.CellInfo, published int) {
	t.Helper()
	coldID := "cold-" + id
	if _, err := c.NewMapping(coldID, src, tgt); err != nil {
		t.Fatalf("NewMapping %s: %v", coldID, err)
	}
	cold, err := c.Match(coldID, -1)
	if err != nil {
		t.Fatalf("cold Match: %v", err)
	}
	score := map[pair]float64{}
	for _, cell := range cold.Cells {
		score[pair{cell.Source, cell.Target}] = cell.Confidence
	}
	was := byPair(before)
	after, err := c.Cells(id)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	stored := byPair(after)

	want, links := map[pair]bool{}, 0
	for p, s := range score {
		b, ok := was[p]
		switch {
		case ok && b.UserDefined:
			if b.Confidence > 0 {
				links++ // pinned at +1
			}
		case s >= threshold:
			links++
			if !ok || b.SetBy != "harmony" || b.Confidence != s {
				want[p] = true
			}
		}
	}
	if published != links {
		t.Errorf("published %d, want %d links", published, links)
	}
	for _, cell := range written {
		p := pair{cell.Source, cell.Target}
		if !want[p] || math.Float64bits(cell.Confidence) != math.Float64bits(score[p]) || cell != stored[p] {
			t.Errorf("wrote %+v; want written %v, cold %v, stored %+v", cell, want[p], score[p], stored[p])
		}
		delete(want, p)
	}
	for p := range want {
		t.Errorf("did not write %s → %s (cold %v, before %+v)", p[0], p[1], score[p], was[p])
	}
	for p, cell := range stored {
		s, live := score[p]
		if live && s >= threshold && !cell.UserDefined {
			if math.Float64bits(cell.Confidence) != math.Float64bits(s) {
				t.Errorf("cell %s → %s = %v; cold %v", p[0], p[1], cell.Confidence, s)
			}
		} else if cell != was[p] {
			t.Errorf("cell %+v changed (before %+v, cold %v, live %v)", cell, was[p], s, live)
		}
	}
	for p, s := range score {
		if _, ok := stored[p]; s >= threshold && !ok {
			t.Errorf("cold link %s → %s (%v) has no cell", p[0], p[1], s)
		}
	}
}

// TestCellsSinceCatchesUp: after a match, two decides and a rematch
// over a reloaded schema, GET cells?since= the rematch's revision is
// empty, since= the match's revision is exactly the decided cells plus
// the rematch's written cells, and since=0 is the full list; a
// malformed since is a 400.
func TestCellsSinceCatchesUp(t *testing.T) {
	c, _ := startServer(t, "", false)
	id := loadPair(t, c)
	// A probe mapping scores every pair, to pick one below the threshold.
	if _, err := c.NewMapping("probe", "po", "si"); err != nil {
		t.Fatalf("NewMapping: %v", err)
	}
	every, err := c.Match("probe", -1)
	if err != nil {
		t.Fatalf("probe Match: %v", err)
	}
	match, err := c.Match(id, 0.2)
	if err != nil || len(match.Cells) == 0 {
		t.Fatalf("Match = %+v, %v", match, err)
	}
	// Reject a link and accept a pair below the threshold, neither on
	// the element the reload renames.
	linked := byPair(match.Cells)
	var reject, accept pair
	for _, cell := range every.Cells {
		p := pair{cell.Source, cell.Target}
		if strings.HasSuffix(p[0], "/firstName") {
			continue
		}
		if _, ok := linked[p]; ok && reject[0] == "" {
			reject = p
		} else if !ok && accept[0] == "" {
			accept = p
		}
	}
	if reject[0] == "" || accept[0] == "" {
		t.Fatalf("no pairs to decide among %d cells", len(every.Cells))
	}
	var decided []server.CellInfo
	for _, d := range []struct {
		p       pair
		verdict string
	}{{reject, "reject"}, {accept, "accept"}} {
		cell, err := c.Decide(id, d.p[0], d.p[1], d.verdict)
		if err != nil {
			t.Fatalf("Decide %v: %v", d.p, err)
		}
		decided = append(decided, cell)
	}
	text := strings.Replace(schemaText(t, "purchaseOrder.xsd"), `"firstName"`, `"givenName"`, 1)
	if _, err := c.LoadSchema("po", "xsd", text); err != nil {
		t.Fatalf("LoadSchema v2: %v", err)
	}
	re, err := c.Rematch(id, 0.2, nil, nil)
	if err != nil {
		t.Fatalf("Rematch: %v", err)
	}
	if len(re.Cells) == 0 || re.Revision != re.Cells[len(re.Cells)-1].Revision {
		t.Fatalf("rematch wrote %d cells, revision %d: want the reload's new links, the last at the revision", len(re.Cells), re.Revision)
	}

	none, err := c.CellsSince(id, re.Revision)
	if err != nil || len(none) != 0 {
		t.Errorf("cells since the rematch = %+v, %v; want none", none, err)
	}
	got, err := c.CellsSince(id, match.Revision)
	if err != nil {
		t.Fatalf("CellsSince: %v", err)
	}
	all, err := c.Cells(id)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	changed := byPair(append(append([]server.CellInfo{}, decided...), re.Cells...))
	var want []server.CellInfo
	for _, cell := range all { // in the full list's order
		if ch, ok := changed[pair{cell.Source, cell.Target}]; ok {
			if ch != cell {
				t.Errorf("stored %+v, last returned as %+v", cell, ch)
			}
			want = append(want, cell)
		}
	}
	if len(want) != len(changed) {
		t.Errorf("%d of %d decided or written cells are stored", len(want), len(changed))
	}
	if !slices.Equal(got, want) {
		t.Errorf("cells since the match = %+v; want the decided and rematch-written cells %+v", got, want)
	}
	zero, err := c.CellsSince(id, 0)
	if err != nil || !slices.Equal(zero, all) {
		t.Errorf("cells since 0 = %d cells, %v; want the full list of %d", len(zero), err, len(all))
	}

	resp, err := http.Get(c.BaseURL() + "/v1/mappings/" + id + "/cells?since=one")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e server.ErrorResponse
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Error == "" {
		t.Errorf("since=one answered %d %s; want a 400 error", resp.StatusCode, body)
	}
}

// TestRematchSpanRecordsPublishScan reads the publish attributes of a
// pins rematch's wbmgr.txn span back through /debug/traces: a match
// reads its cells from the graph; after a view and two decides, which
// carry the view's table, the rematch reads them from the table and
// writes nothing.
func TestRematchSpanRecordsPublishScan(t *testing.T) {
	c, _ := startServer(t, "", false)
	id := loadPair(t, c)
	match, err := c.Match(id, 0.2)
	if err != nil || len(match.Cells) < 2 {
		t.Fatalf("Match = %+v, %v", match, err)
	}
	tr, err := c.Trace(c.LastTrace())
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	ix := indexTrace(t, tr)
	txn := ix.find("wbmgr.txn")
	for key, want := range map[string]string{
		"publish_read_from": "graph", "publish_links": strconv.Itoa(match.Published),
		"publish_written": strconv.Itoa(len(match.Cells)),
	} {
		if got := ix.attr(txn, key); got != want {
			t.Errorf("match span %s = %q, want %q", key, got, want)
		}
	}

	if _, err := c.Cells(id); err != nil {
		t.Fatalf("Cells: %v", err)
	}
	for i, verdict := range []string{"accept", "reject"} {
		if _, err := c.Decide(id, match.Cells[i].Source, match.Cells[i].Target, verdict); err != nil {
			t.Fatalf("Decide: %v", err)
		}
	}
	re, err := c.Rematch(id, 0.2, nil, nil)
	if err != nil {
		t.Fatalf("Rematch: %v", err)
	}
	if re.Mode != harmony.RematchPins {
		t.Fatalf("rematch mode = %q; want %q", re.Mode, harmony.RematchPins)
	}
	tr, err = c.Trace(c.LastTrace())
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	ix = indexTrace(t, tr)
	txn = ix.find("wbmgr.txn")
	if ix.attr(txn, "publish_read_from") != "table" || ix.attr(txn, "publish_written") != "0" ||
		ix.attr(txn, "publish_links") != strconv.Itoa(re.Published) || len(re.Cells) != 0 {
		t.Errorf("rematch span attrs %v, %d cells returned; want reads from the table and no cell written", txn.Attrs, len(re.Cells))
	}
	if re.Published != match.Published-1 {
		t.Errorf("rematch published %d, match %d: the rejected link must drop and only it", re.Published, match.Published)
	}
}
