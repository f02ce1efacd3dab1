package workbench

// The cross-entrypoint differential: one seeded op script — load, map,
// match, accept/reject, match again, apply v2 — through the local state
// file, -remote, and -remote -workspace must leave the same blackboard
// behind. The three paths share one match session, one publish and one
// apply path, so anything but identical schemas, cells and revision
// order is a divergence between entry points.

import (
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/blackboard"
	"repro/internal/client"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/xmlschema"
)

// entrypointDir lays out one entry point's working dir: the two schema
// files to load, and a schema-set config whose v2 renames one source
// element.
func entrypointDir(t *testing.T, po, si string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"po.xsd":              po,
		"si.xsd":              si,
		"sets/core/v2/po.xsd": strings.Replace(po, `"firstName"`, `"givenName"`, 1),
		"schemasets.json":     `{"root": "sets", "sets": [{"name": "core", "version": "v2", "schemas": ["po.xsd"]}]}`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// decisionScript picks seeded accept/reject ops over the pair's
// non-root elements.
func decisionScript(t *testing.T, seed int64, po, si string) [][]string {
	t.Helper()
	ids := func(name, text string) []string {
		s, err := xmlschema.Load(name, strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, el := range s.Elements() {
			if el != s.Root() {
				out = append(out, el.ID)
			}
		}
		return out
	}
	src, tgt := ids("po", po), ids("si", si)
	rng := rand.New(rand.NewSource(seed))
	var ops [][]string
	seen := map[[2]string]bool{}
	for len(ops) < 4 {
		pair := [2]string{src[rng.Intn(len(src))], tgt[rng.Intn(len(tgt))]}
		if seen[pair] {
			continue
		}
		seen[pair] = true
		verdict := "accept"
		if len(ops)%2 == 1 {
			verdict = "reject"
		}
		ops = append(ops, []string{verdict, "m1", pair[0], pair[1]})
	}
	return ops
}

// schemaGraph is the blackboard's schema subgraph: every triple about a
// schema, archived versions included.
func schemaGraph(bb *blackboard.Blackboard) *rdf.Graph {
	prefix := model.SchemaIRI("").Value()
	g := rdf.NewGraph()
	bb.Graph().Visit(rdf.Wild, rdf.Wild, rdf.Wild, func(tr rdf.Triple) bool {
		if strings.HasPrefix(tr.S.Value(), prefix) {
			g.Add(tr)
		}
		return true
	})
	return g
}

// cellView renders each mapping's cells (source, target, confidence
// bits, user-defined flag, and the writer of machine cells) and the
// order their revisions put them in.
func cellView(t *testing.T, bb *blackboard.Blackboard) (cells, order map[string][]string) {
	t.Helper()
	cells, order = map[string][]string{}, map[string][]string{}
	for _, id := range bb.Mappings() {
		mp, err := bb.GetMapping(id)
		if err != nil {
			t.Fatal(err)
		}
		all := mp.Cells()
		for _, c := range all {
			// A decision's writer differs by design: the local CLI
			// records "engineer", a client without a session "remote".
			setBy := c.SetBy
			if c.UserDefined {
				setBy = "(decision)"
			}
			cells[id] = append(cells[id], fmt.Sprintf("%s → %s %016x user=%v by %s",
				c.SourceID, c.TargetID, math.Float64bits(c.Confidence), c.UserDefined, setBy))
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Revision < all[j].Revision })
		for _, c := range all {
			order[id] = append(order[id], c.SourceID+" → "+c.TargetID)
		}
	}
	return cells, order
}

// firstDiff describes where two renderings first differ.
func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("at %d: %q vs %q", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}

func TestCrossEntrypointDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	po, si := schemaTextFile(t, "purchaseOrder.xsd"), schemaTextFile(t, "shippingInfo.xsd")
	script := [][]string{
		{"load", "po.xsd"},
		{"load", "si.xsd"},
		{"map", "m1", "po", "si"},
		{"match", "m1", "0.2"},
	}
	script = append(script, decisionScript(t, 7, po, si)...)
	script = append(script, []string{"match", "m1", "0.2"}, []string{"apply", "-yes"})

	srv, err := server.New(server.Config{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := client.New(ts.URL).CreateWorkspace("team", 0, 0); err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(ts.URL, "http://")

	localDir := entrypointDir(t, po, si)
	boards := map[string]*blackboard.Blackboard{}
	for _, ep := range []struct {
		name   string
		prefix []string
		dir    string
	}{
		{"local", nil, localDir},
		{"remote", []string{"-remote", addr}, entrypointDir(t, po, si)},
		{"workspace", []string{"-remote", addr, "-workspace", "team"}, entrypointDir(t, po, si)},
	} {
		for _, op := range script {
			run(t, ep.dir, "workbench", append(slices.Clone(ep.prefix), op...)...)
		}
		if ep.name == "local" {
			f, err := os.Open(filepath.Join(ep.dir, "workbench.nt"))
			if err != nil {
				t.Fatal(err)
			}
			bb := blackboard.New()
			err = bb.Restore(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			boards[ep.name] = bb
			continue
		}
		ws := "default"
		if ep.name == "workspace" {
			ws = "team"
		}
		w, ok := srv.Workspaces().Get(ws)
		if !ok {
			t.Fatalf("workspace %q missing", ws)
		}
		boards[ep.name] = w.Blackboard()
	}

	local := boards["local"]
	wantCells, wantOrder := cellView(t, local)
	if len(wantCells["m1"]) == 0 {
		t.Fatal("the script left no cells")
	}
	for _, name := range []string{"remote", "workspace"} {
		bb := boards[name]
		if !rdf.Equal(schemaGraph(local), schemaGraph(bb)) {
			t.Errorf("%s: schema subgraph differs from local", name)
		}
		cells, order := cellView(t, bb)
		for id, want := range wantCells {
			if !slices.Equal(want, cells[id]) {
				t.Errorf("%s: mapping %s cells differ from local, %s", name, id, firstDiff(want, cells[id]))
			}
			if !slices.Equal(wantOrder[id], order[id]) {
				t.Errorf("%s: mapping %s revision order differs from local, %s", name, id, firstDiff(wantOrder[id], order[id]))
			}
		}
		if len(cells) != len(wantCells) {
			t.Errorf("%s: %d mappings, local %d", name, len(cells), len(wantCells))
		}
	}
}

// schemaTextFile reads a schema from testdata.
func schemaTextFile(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
