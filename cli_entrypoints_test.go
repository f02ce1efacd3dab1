package workbench

// The cross-entrypoint differential: one seeded op script — load, map,
// match, accept/reject, match again, apply v2 — through the local state
// file, -remote, -remote -workspace, and a replica promoted halfway
// through must print the same output and leave the same blackboard
// behind. Every entry point runs the same client code against the same
// service routes, so anything but identical stdout, schemas, cells
// (decision provenance included) and revision order is a divergence
// between entry points.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/blackboard"
	"repro/internal/client"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/logx"
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
// bits, user-defined flag and writer) and the order their revisions put
// them in.
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
			cells[id] = append(cells[id], fmt.Sprintf("%s → %s %016x user=%v by %s",
				c.SourceID, c.TargetID, math.Float64bits(c.Confidence), c.UserDefined, c.SetBy))
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

// runStdout executes the workbench in dir and returns its stdout alone.
func runStdout(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), "workbench"), args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("workbench %v: %v\n%s%s", args, err, out, stderr.Bytes())
	}
	return string(out)
}

// rematchMode matches the mode apply reports per re-matched mapping: a
// one-shot local process has no live engine, so its mode is "cold"
// where a long-lived service re-matches incrementally.
var rematchMode = regexp.MustCompile(`(?m)^(  rematch \S+: mode=)\S+`)

// waitCaughtUp blocks until the replica's last applied txn reaches the
// primary's.
func waitCaughtUp(t *testing.T, pri, rep *client.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ps, perr := pri.ReplStatus()
		rs, rerr := rep.ReplStatus()
		if perr == nil && rerr == nil && rs.LastTxn >= ps.LastTxn {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica did not catch up: primary %+v (%v), replica %+v (%v)", ps, perr, rs, rerr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCrossEntrypointDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	po, si := schemaTextFile(t, "purchaseOrder.xsd"), schemaTextFile(t, "shippingInfo.xsd")
	script := [][]string{
		{"load", "po.xsd"},
		{"load", "si.xsd"},
		{"schemas"},
		{"map", "m1", "po", "si"},
		{"match", "m1", "0.2"},
	}
	firstDecision := len(script)
	script = append(script, decisionScript(t, 7, po, si)...)
	script = append(script,
		[]string{"match", "m1", "0.2"},
		[]string{"cells", "m1"},
		[]string{"query", `?s <urn:workbench:name> "subtotal"`, "s"},
		[]string{"plan"},
		[]string{"apply", "-yes"})

	serve := func(cfg server.Config) (*server.Server, string) {
		cfg.Metrics, cfg.Log = obs.NewRegistry(), logx.Discard()
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(srv.StopReplication)
		return srv, ts.URL
	}
	srv, url := serve(server.Config{})
	if _, err := client.New(url).CreateWorkspace("team", 0, 0); err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(url, "http://")
	// The replica entry point runs the script up to the decisions on a
	// durable primary, promotes the caught-up replica, and runs the rest
	// there.
	_, priURL := serve(server.Config{DataDir: t.TempDir()})
	repSrv, repURL := serve(server.Config{
		ReplicaOf: priURL, ReplPollTimeout: 250 * time.Millisecond, ReplBackoff: 20 * time.Millisecond,
	})
	priAddr, repAddr := strings.TrimPrefix(priURL, "http://"), strings.TrimPrefix(repURL, "http://")
	promote := func(dir string) {
		waitCaughtUp(t, client.New(priURL), client.New(repURL))
		runStdout(t, dir, "-remote", repAddr, "promote")
	}

	type entrypoint struct {
		name string
		// prefix addresses the ops before the first decision, then the
		// rest; switchover runs between the two.
		prefix, then []string
		switchover   func(dir string)
		board        func(dir string) *blackboard.Blackboard
	}
	workspaceBoard := func(srv *server.Server, ws string) func(string) *blackboard.Blackboard {
		return func(string) *blackboard.Blackboard {
			w, ok := srv.Workspaces().Get(ws)
			if !ok {
				t.Fatalf("workspace %q missing", ws)
			}
			return w.Blackboard()
		}
	}
	bare := []string{"-remote", addr}
	team := []string{"-remote", addr, "-workspace", "team"}
	eps := []entrypoint{
		{name: "local", board: func(dir string) *blackboard.Blackboard {
			f, err := os.Open(filepath.Join(dir, "workbench.nt"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			bb := blackboard.New()
			if err := bb.Restore(f); err != nil {
				t.Fatal(err)
			}
			return bb
		}},
		{name: "remote", prefix: bare, then: bare, board: workspaceBoard(srv, "default")},
		{name: "workspace", prefix: team, then: team, board: workspaceBoard(srv, "team")},
		{name: "replica", prefix: []string{"-remote", priAddr}, then: []string{"-remote", repAddr},
			switchover: promote, board: workspaceBoard(repSrv, "default")},
	}

	outs := map[string][]string{}
	boards := map[string]*blackboard.Blackboard{}
	for _, ep := range eps {
		dir := entrypointDir(t, po, si)
		for i, op := range script {
			prefix := ep.prefix
			if i >= firstDecision {
				if i == firstDecision && ep.switchover != nil {
					ep.switchover(dir)
				}
				prefix = ep.then
			}
			out := runStdout(t, dir, append(slices.Clone(prefix), op...)...)
			outs[ep.name] = append(outs[ep.name], rematchMode.ReplaceAllString(out, "${1}*"))
		}
		boards[ep.name] = ep.board(dir)
	}

	local := boards["local"]
	wantCells, wantOrder := cellView(t, local)
	if len(wantCells["m1"]) == 0 {
		t.Fatal("the script left no cells")
	}
	for _, ep := range eps[1:] {
		name, bb := ep.name, boards[ep.name]
		for i, op := range script {
			if outs[name][i] != outs["local"][i] {
				t.Errorf("%s: %v prints\n%s\nlocal prints\n%s", name, op, outs[name][i], outs["local"][i])
			}
		}
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
