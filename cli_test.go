package workbench

// End-to-end tests for the command-line tools: each test builds the
// binary once (cached by the Go toolchain) and drives it the way an
// integration engineer would, including cmd/workbench's snapshot
// persistence across invocations.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/blackboard"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildCLIs compiles the four binaries into a shared temp dir.
func buildCLIs(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "wbcli")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"workbench", "harmony", "registry", "benchreport"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				buildErr = err
				buildDir = string(out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building CLIs: %v\n%s", buildErr, buildDir)
	}
	return buildDir
}

// TestPerfbenchModule vets and tests the perfbench module. It builds
// against server.Config and internal/client but is a module of its
// own, so no root build or test compiles it: without this, an API
// change could break the benchmark unnoticed. Its smoke test runs every
// workload at tiny size with the output checks, which read match and
// rematch responses, so a wire change that breaks them fails here too.
func TestPerfbenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet and go test on the perfbench module")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "perfbench"
		cmd.Env = append(os.Environ(), "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in perfbench: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}

// run executes a built binary and returns stdout+stderr.
func run(t *testing.T, dir, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), tool), args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

// runExpectError executes a binary expecting a non-zero exit.
func runExpectError(t *testing.T, dir, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), tool), args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v should have failed:\n%s", tool, args, out)
	}
	return string(out)
}

const cliPOXSD = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="shipTo">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="firstName" type="xs:string"/>
        <xs:element name="lastName" type="xs:string"/>
        <xs:element name="subtotal" type="xs:decimal"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`

const cliSIXSD = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="shippingInfo">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="name" type="xs:string"/>
        <xs:element name="total" type="xs:decimal"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`

func writeSchemas(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "po.xsd"), []byte(cliPOXSD), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "si.xsd"), []byte(cliSIXSD), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestWorkbenchCLIEndToEnd drives load → map → match → accept → code →
// gen → query across separate process invocations, with state persisted
// in the N-Triples snapshot between them.
func TestWorkbenchCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := writeSchemas(t)

	out := run(t, dir, "workbench", "load", "po.xsd")
	if !strings.Contains(out, `loaded schema "po"`) {
		t.Fatalf("load: %s", out)
	}
	run(t, dir, "workbench", "load", "si.xsd")

	out = run(t, dir, "workbench", "schemas")
	if !strings.Contains(out, "po (v1)") || !strings.Contains(out, "si (v1)") {
		t.Fatalf("schemas: %s", out)
	}

	run(t, dir, "workbench", "map", "m1", "po", "si")
	out = run(t, dir, "workbench", "match", "m1", "0.2")
	if !strings.Contains(out, "published") {
		t.Fatalf("match: %s", out)
	}

	run(t, dir, "workbench", "accept", "m1", "po/shipTo/subtotal", "si/shippingInfo/total")
	out = run(t, dir, "workbench", "cells", "m1")
	if !strings.Contains(out, "+1.00 (user, by remote)") {
		t.Fatalf("cells: %s", out)
	}

	run(t, dir, "workbench", "code", "m1", "po/shipTo", "$s",
		"si/shippingInfo/total", "data($s/subtotal) * 1.05")
	run(t, dir, "workbench", "code", "m1", "po/shipTo", "$s",
		"si/shippingInfo/name", `concat($s/lastName, ", ", $s/firstName)`)

	out = run(t, dir, "workbench", "gen", "m1", "po/shipTo", "si/shippingInfo")
	for _, want := range []string{"for $s in //shipTo", "element total { data($s/subtotal) * 1.05 }"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gen missing %q:\n%s", want, out)
		}
	}

	// Ad hoc query over the persisted blackboard.
	out = run(t, dir, "workbench", "query", `?s <urn:workbench:name> "subtotal"`, "s")
	if !strings.Contains(out, "1 rows") {
		t.Fatalf("query: %s", out)
	}

	// The snapshot file exists and reloads.
	if _, err := os.Stat(filepath.Join(dir, "workbench.nt")); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}

	// Schema versioning across invocations.
	run(t, dir, "workbench", "load", "po.xsd")
	out = run(t, dir, "workbench", "schemas")
	if !strings.Contains(out, "po (v2)") {
		t.Fatalf("versioning: %s", out)
	}
}

// TestWorkbenchCLIMatchKeepsDecisions: a local match after an accept
// and a reject pins both decisions instead of republishing the pairs as
// machine cells.
func TestWorkbenchCLIMatchKeepsDecisions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := writeSchemas(t)
	run(t, dir, "workbench", "load", "po.xsd")
	run(t, dir, "workbench", "load", "si.xsd")
	run(t, dir, "workbench", "map", "m1", "po", "si")
	run(t, dir, "workbench", "accept", "m1", "po/shipTo/subtotal", "si/shippingInfo/total")
	run(t, dir, "workbench", "reject", "m1", "po/shipTo/firstName", "si/shippingInfo/name")
	run(t, dir, "workbench", "match", "m1", "0.2")
	out := run(t, dir, "workbench", "cells", "m1")
	for _, want := range []string{
		"po/shipTo/subtotal                       ↔ si/shippingInfo/total                    +1.00 (user, by remote)",
		"po/shipTo/firstName                      ↔ si/shippingInfo/name                     -1.00 (user, by remote)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cells after match lost a decision; want %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "(machine, by harmony)") {
		t.Errorf("match published no machine cells:\n%s", out)
	}
}

// TestWorkbenchCLITornSaveKeepsState: a fault in the middle of a local
// state save (the workbench.state.save failpoint, hit after the new
// snapshot is written) fails the command and leaves the previous state
// file byte-identical and loadable.
func TestWorkbenchCLITornSaveKeepsState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := writeSchemas(t)
	run(t, dir, "workbench", "load", "po.xsd")
	run(t, dir, "workbench", "load", "si.xsd")
	run(t, dir, "workbench", "map", "m1", "po", "si")
	state := filepath.Join(dir, "workbench.nt")
	before, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	out := runExpectError(t, dir, "workbench", "-chaos-sites", "workbench.state.save=error:n1", "match", "m1", "0.2")
	if !strings.Contains(out, "injected") {
		t.Fatalf("torn save: %s", out)
	}
	after, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a failed save changed the state file")
	}
	if err := blackboard.New().Restore(bytes.NewReader(after)); err != nil {
		t.Fatalf("state after a failed save does not load: %v", err)
	}
	if _, err := os.Stat(state + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed save left its temporary file: %v", err)
	}
	if out := run(t, dir, "workbench", "cells", "m1"); strings.Contains(out, "harmony") {
		t.Fatalf("the failed match's cells were saved:\n%s", out)
	}
}

func TestWorkbenchCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := writeSchemas(t)
	runExpectError(t, dir, "workbench", "load", "missing.xsd")
	runExpectError(t, dir, "workbench", "map", "m1", "ghost", "also-ghost")
	runExpectError(t, dir, "workbench", "nonsense")
	run(t, dir, "workbench", "load", "po.xsd")
	run(t, dir, "workbench", "load", "si.xsd")
	run(t, dir, "workbench", "map", "m1", "po", "si")
	runExpectError(t, dir, "workbench", "code", "m1", "po/shipTo", "$s",
		"si/shippingInfo/total", "((bad code")

	// A decision must name non-root elements of the mapping's schemas:
	// no engine could ever pin any other pair.
	state := filepath.Join(dir, "workbench.nt")
	before, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{
		{"po/noSuchElement", "si/alsoMissing"},
		{"po/shipTo/subtotal", "si/alsoMissing"},
		{"po", "si/shippingInfo/total"}, // the source schema's root
	} {
		cmd := exec.Command(filepath.Join(buildCLIs(t), "workbench"), "accept", "m1", pair[0], pair[1])
		cmd.Dir = dir
		out, _ := cmd.CombinedOutput()
		if got := cmd.ProcessState.ExitCode(); got != 1 || !strings.Contains(string(out), "unknown element") {
			t.Errorf("accept %v: exit %d, want 1 and an unknown-element error:\n%s", pair, got, out)
		}
	}
	after, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a refused decision changed the state file")
	}
}

func TestHarmonyCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := writeSchemas(t)
	out := run(t, dir, "harmony", "-threshold", "0.2", "po.xsd", "si.xsd")
	if !strings.Contains(out, "correspondences at threshold") {
		t.Fatalf("harmony: %s", out)
	}
	if !strings.Contains(out, "po/shipTo/subtotal ↔ si/shippingInfo/total") {
		t.Fatalf("expected subtotal↔total link:\n%s", out)
	}
	out = run(t, dir, "harmony", "-one-to-one", "-timings", "po.xsd", "si.xsd")
	if !strings.Contains(out, "pipeline stages:") || !strings.Contains(out, "voter:name") {
		t.Fatalf("timings: %s", out)
	}
	runExpectError(t, dir, "harmony", "po.xsd")                // one arg
	runExpectError(t, dir, "harmony", "po.txt", "si.xsd")      // unknown ext
	runExpectError(t, dir, "harmony", "missing.xsd", "si.xsd") // missing file
}

func TestRegistryCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	out := run(t, dir, "registry", "-scale", "0.01")
	for _, want := range []string{"Paper Table 1", "Measured on the synthetic registry", "Element", "Attribute", "Domain"} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry output missing %q:\n%s", want, out)
		}
	}
	out = run(t, dir, "registry", "-scale", "0.01", "-table1=false", "-dump", "0")
	if !strings.Contains(out, "schema model000") {
		t.Fatalf("dump: %s", out)
	}
	out = run(t, dir, "registry", "-scale", "0.01", "-table1=false", "-pair", "0")
	if !strings.Contains(out, "true correspondences") {
		t.Fatalf("pair: %s", out)
	}
	runExpectError(t, dir, "registry", "-scale", "0.01", "-dump", "9999")
}

// TestWorkbenchCLIDot renders the mapping as Graphviz DOT.
func TestWorkbenchCLIDot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := writeSchemas(t)
	run(t, dir, "workbench", "load", "po.xsd")
	run(t, dir, "workbench", "load", "si.xsd")
	run(t, dir, "workbench", "map", "m1", "po", "si")
	run(t, dir, "workbench", "accept", "m1", "po/shipTo/subtotal", "si/shippingInfo/total")
	out := run(t, dir, "workbench", "dot", "m1")
	for _, want := range []string{"digraph mapping", "cluster_src", "forestgreen", `style="bold"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("dot output missing %q:\n%s", want, out)
		}
	}
}

// TestTwoWorkbenchInstancesShareBlackboard exercises the §5.1.3 goal
// ("the blackboard should be shared across multiple workbench
// instances") through the snapshot mechanism: instance A loads and
// matches, instance B (a different state file seeded from A's snapshot)
// continues the mapping.
func TestTwoWorkbenchInstancesShareBlackboard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := writeSchemas(t)
	// Instance A.
	run(t, dir, "workbench", "-state", "a.nt", "load", "po.xsd")
	run(t, dir, "workbench", "-state", "a.nt", "load", "si.xsd")
	run(t, dir, "workbench", "-state", "a.nt", "map", "m1", "po", "si")
	run(t, dir, "workbench", "-state", "a.nt", "match", "m1", "0.2")

	// Hand the blackboard to instance B.
	snap, err := os.ReadFile(filepath.Join(dir, "a.nt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.nt"), snap, 0o644); err != nil {
		t.Fatal(err)
	}

	// Instance B sees A's work and continues it.
	out := run(t, dir, "workbench", "-state", "b.nt", "cells", "m1")
	if !strings.Contains(out, "harmony") {
		t.Fatalf("instance B missing A's cells:\n%s", out)
	}
	run(t, dir, "workbench", "-state", "b.nt", "code", "m1", "po/shipTo", "$s",
		"si/shippingInfo/total", "data($s/subtotal)")
	out = run(t, dir, "workbench", "-state", "b.nt", "gen", "m1", "po/shipTo", "si/shippingInfo")
	if !strings.Contains(out, "element total { data($s/subtotal) }") {
		t.Fatalf("instance B generation:\n%s", out)
	}
	// A's snapshot is untouched by B's work.
	out = run(t, dir, "workbench", "-state", "a.nt", "cells", "m1")
	if strings.Contains(out, "data($s/subtotal)") {
		t.Fatal("instance isolation broken")
	}
}

// TestHarmonyCLIMatrixDotThesaurus exercises the display flags and the
// thesaurus file on the shipped testdata.
func TestHarmonyCLIMatrixDotThesaurus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	repoRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	out := run(t, repoRoot, "harmony", "-matrix",
		"testdata/purchaseOrder.xsd", "testdata/shippingInfo.xsd")
	if !strings.Contains(out, "shipTo") || !strings.Contains(out, "+") {
		t.Fatalf("matrix: %s", out)
	}
	out = run(t, repoRoot, "harmony", "-dot", "-threshold", "0.2",
		"testdata/purchaseOrder.xsd", "testdata/shippingInfo.xsd")
	if !strings.Contains(out, "digraph mapping") {
		t.Fatalf("dot: %s", out)
	}
	out = run(t, repoRoot, "harmony",
		"-thesaurus", "testdata/aviation.thesaurus", "-threshold", "0.2",
		"testdata/faa.er", "testdata/eurocontrol.er")
	if !strings.Contains(out, "FAA/Facility ↔ Eurocontrol/Aerodrome") {
		t.Fatalf("thesaurus run:\n%s", out)
	}
}

// TestBenchreportCLIQuick smoke-runs the full experiment report.
func TestBenchreportCLIQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs experiments")
	}
	out := run(t, t.TempDir(), "benchreport", "-quick")
	for _, want := range []string{
		"E1 — Table 1", "E2b — matcher scaling", "E5 — Figure 4",
		"E6 — matcher quality", "harmony-full", "cupid-style",
		"E7 — iterative refinement", "E8 — filter effectiveness",
		"E9 — task coverage", "workbench  covers 13/13 tasks (all: true)",
		"E9b — literature systems", "E10 — usability", "E11 — mapping reuse",
		"E12 — fully automated", "Ablations",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("benchreport missing %q", want)
		}
	}
}

// TestHarmonyCLIMetrics covers the -metrics exposition and the
// single-argument demo mode (directory of schemata).
func TestHarmonyCLIMetrics(t *testing.T) {
	dir := writeSchemas(t)
	out := run(t, dir, "harmony", "-metrics", "po.xsd", "si.xsd")
	for _, want := range []string{
		"# TYPE harmony_stage_duration_seconds histogram",
		`harmony_stage_duration_seconds_bucket{stage="voter:name",le="+Inf"} 1`,
		`harmony_stage_duration_seconds_count{stage="merge"} 1`,
		`harmony_stage_duration_seconds_count{stage="flooding"} 1`,
		"harmony_runs_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, out)
		}
	}
	// Demo mode: the schema directory itself as the single argument.
	out = run(t, dir, "harmony", "-metrics", ".")
	if !strings.Contains(out, `stage="voter:name"`) {
		t.Errorf("demo-mode -metrics output:\n%s", out)
	}
	// JSON exposition must be machine-readable.
	out = run(t, dir, "harmony", "-metrics-json", "po.xsd", "si.xsd")
	if !strings.Contains(out, `"harmony_stage_duration_seconds"`) {
		t.Errorf("-metrics-json output:\n%s", out)
	}
}

// TestHarmonyCLITimingsTable checks the aligned deterministic -timings
// format: one row per stage plus a total, all duration cells aligned.
func TestHarmonyCLITimingsTable(t *testing.T) {
	dir := writeSchemas(t)
	out := run(t, dir, "harmony", "-timings", "po.xsd", "si.xsd")
	lines := strings.Split(out, "\n")
	var stageLines []string
	inTable := false
	unitCol := -1
	for _, l := range lines {
		if strings.HasPrefix(l, "pipeline stages:") {
			inTable = true
			continue
		}
		if inTable {
			if !strings.HasPrefix(l, "  ") {
				break
			}
			stageLines = append(stageLines, l)
			// Every row ends with a right-aligned duration cell, so all
			// rows render at the same rune width.
			w := len([]rune(l))
			if unitCol < 0 {
				unitCol = w
			} else if w != unitCol {
				t.Errorf("misaligned row (%d vs %d runes): %q", w, unitCol, l)
			}
		}
	}
	// Stable ordering: voters first, then merge/flooding/pin-decisions/total.
	wantOrder := []string{"voter:name", "voter:documentation", "voter:thesaurus",
		"voter:domain-values", "voter:data-type", "voter:structure",
		"merge", "flooding", "pin-decisions", "total"}
	if len(stageLines) != len(wantOrder) {
		t.Fatalf("stage rows = %d, want %d:\n%s", len(stageLines), len(wantOrder), out)
	}
	for i, want := range wantOrder {
		if !strings.Contains(stageLines[i], want) {
			t.Errorf("row %d = %q, want stage %q", i, stageLines[i], want)
		}
	}
	// The wall-vs-CPU summary follows the table, un-indented: with the
	// parallel pipeline the summed stage durations (CPU) exceed the wall
	// clock, so the report shows both.
	if !strings.Contains(out, "wall ") || !strings.Contains(out, " vs cpu ") || !strings.Contains(out, "at parallelism ") {
		t.Errorf("missing wall-vs-cpu summary line:\n%s", out)
	}
}

// TestHarmonyCLIParallelismFlag checks -parallelism reaches the engine:
// the run still succeeds sequentially and the summary reports the forced
// worker count.
func TestHarmonyCLIParallelismFlag(t *testing.T) {
	dir := writeSchemas(t)
	out := run(t, dir, "harmony", "-parallelism", "1", "-timings", "po.xsd", "si.xsd")
	if !strings.Contains(out, "at parallelism 1") {
		t.Errorf("forced sequential run not reported:\n%s", out)
	}
	if !strings.Contains(out, "correspondences at threshold") {
		t.Errorf("sequential run produced no links:\n%s", out)
	}
}

// TestWorkbenchCLIMetricsSubcommand loads a schema then dumps metrics.
func TestWorkbenchCLIMetricsSubcommand(t *testing.T) {
	dir := writeSchemas(t)
	run(t, dir, "workbench", "load", "po.xsd")
	out := run(t, dir, "workbench", "metrics")
	for _, want := range []string{"ib_schemas 1", "ib_mappings 0", "ib_triples"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	out = run(t, dir, "workbench", "-json", "metrics")
	if !strings.Contains(out, `"ib_schemas"`) {
		t.Errorf("json metrics output:\n%s", out)
	}
}
