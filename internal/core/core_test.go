package core

import (
	"strings"
	"testing"

	"repro/internal/instance"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/wbmgr"
)

func TestTaskModelComplete(t *testing.T) {
	if len(Tasks) != 13 {
		t.Fatalf("task model has %d tasks, want 13", len(Tasks))
	}
	// Phase grouping matches §3: 2 + 1 + 6 + 2 + 2.
	wantCounts := map[Phase]int{
		PhaseSchemaPreparation:    2,
		PhaseSchemaMatching:       1,
		PhaseSchemaMapping:        6,
		PhaseInstanceIntegration:  2,
		PhaseSystemImplementation: 2,
	}
	for p, want := range wantCounts {
		if got := len(PhaseTasks(p)); got != want {
			t.Errorf("%v has %d tasks, want %d", p, got, want)
		}
	}
	// IDs are 1..13 in order.
	for i, task := range Tasks {
		if int(task.ID) != i+1 {
			t.Errorf("task %d has id %d", i, task.ID)
		}
	}
	if _, ok := TaskByID(TaskVerifyMappings); !ok {
		t.Error("TaskByID failed")
	}
	if _, ok := TaskByID(TaskID(99)); ok {
		t.Error("TaskByID(99) should fail")
	}
	// Only task 2 is optional.
	for _, task := range Tasks {
		if task.Optional != (task.ID == TaskObtainTarget) {
			t.Errorf("optionality wrong for %v", task.ID)
		}
	}
}

func TestPhaseAndSupportStrings(t *testing.T) {
	if PhaseSchemaMapping.String() != "schema mapping" {
		t.Error("phase name wrong")
	}
	if Phase(9).String() == "" || Support(9).String() == "" {
		t.Error("out-of-range strings should not be empty")
	}
	if AutomatedSupport.String() != "automated" || NoSupport.String() != "-" {
		t.Error("support names wrong")
	}
}

// TestE9Coverage reproduces the §5.3 claim: neither tool alone covers
// all subtasks; the combination (plus the instance layer) does.
func TestE9Coverage(t *testing.T) {
	h := HarmonyProfile()
	m := MapperProfile()
	w := WorkbenchProfile()
	if h.CoversAll() {
		t.Error("Harmony alone must not cover everything")
	}
	if m.CoversAll() {
		t.Error("the mapper alone must not cover everything")
	}
	if !w.CoversAll() {
		t.Error("the combined workbench must cover all 13 tasks")
	}
	if h.CoverageCount(NoSupport) >= w.CoverageCount(NoSupport) {
		t.Error("combination should cover strictly more tasks than Harmony")
	}
	// Harmony automates matching; the mapper only hosts it manually.
	if h.Coverage[TaskGenerateCorrespondences] != AutomatedSupport {
		t.Error("Harmony should automate matching")
	}
	if m.Coverage[TaskGenerateCorrespondences] != ManualSupport {
		t.Error("mapper matching should be manual")
	}
	// Combine keeps the stronger level.
	if w.Coverage[TaskGenerateCorrespondences] != AutomatedSupport {
		t.Error("combination should keep automated matching")
	}
}

func usabilityFixture(t *testing.T) (*model.Schema, *model.Schema, *registry.GroundTruth) {
	t.Helper()
	cfg := registry.DefaultConfig()
	cfg.Models = 1
	cfg.ElementsTotal = 6
	cfg.AttributesTotal = 24
	cfg.DomainValuesTotal = 30
	reg := registry.Generate(cfg)
	src := reg.Models[0]
	tgt, gt := registry.Perturb(src, registry.DefaultPerturb())
	return src, tgt, gt
}

// TestE10Usability reproduces the §6 measurement: tooling reduces
// engineer operations, condition by condition.
func TestE10Usability(t *testing.T) {
	src, tgt, gt := usabilityFixture(t)
	rows := RunUsability(src, tgt, gt)
	if len(rows) != 3 {
		t.Fatalf("conditions = %d", len(rows))
	}
	manual, assisted, workbench := rows[0], rows[1], rows[2]
	if manual.Condition != "manual" || workbench.Condition != "workbench" {
		t.Fatalf("order: %v", []string{manual.Condition, assisted.Condition, workbench.Condition})
	}
	if !(manual.Total > assisted.Total) {
		t.Errorf("Harmony should reduce ops: manual=%d assisted=%d", manual.Total, assisted.Total)
	}
	if !(assisted.Total >= workbench.Total) {
		t.Errorf("full workbench should reduce ops further: assisted=%d workbench=%d", assisted.Total, workbench.Total)
	}
	// The matching task dominates manual effort (grid scan).
	if manual.OpsByTask[TaskGenerateCorrespondences] <= assisted.OpsByTask[TaskGenerateCorrespondences] {
		t.Error("matching ops should shrink with Harmony")
	}
	ids := TasksWithOps(rows)
	if len(ids) == 0 || ids[0] != TaskGenerateCorrespondences {
		t.Errorf("TasksWithOps = %v", ids)
	}
}

// sessionFixture builds the Figure 2/3 schemata for session tests.
func sessionSchemata() (*model.Schema, *model.Schema) {
	src := model.NewSchema("po", "xsd")
	st := src.AddElement(nil, "shipTo", model.KindEntity, model.ContainsElement)
	st.Doc = "Shipping destination for the order"
	for _, n := range []string{"firstName", "lastName", "subtotal"} {
		a := src.AddElement(st, n, model.KindAttribute, model.ContainsAttribute)
		a.DataType = "string"
	}
	tgt := model.NewSchema("si", "xsd")
	si := tgt.AddElement(nil, "shippingInfo", model.KindEntity, model.ContainsElement)
	si.Doc = "Information about where an order ships"
	nm := tgt.AddElement(si, "name", model.KindAttribute, model.ContainsAttribute)
	nm.DataType = "string"
	nm.Required = true
	tot := tgt.AddElement(si, "total", model.KindAttribute, model.ContainsAttribute)
	tot.DataType = "decimal"
	return src, tgt
}

func newSession(t *testing.T) *IntegrationSession {
	t.Helper()
	src, tgt := sessionSchemata()
	s, err := NewIntegrationSession("case-study", src, tgt, "po/shipTo", "si/shippingInfo")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionEndToEnd(t *testing.T) {
	s := newSession(t)

	// Task 3: machine matching publishes cells.
	n, err := s.Match(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no machine correspondences published")
	}
	mp, _ := s.Mapping()
	if len(mp.Cells()) != n {
		t.Errorf("cells = %d, want %d", len(mp.Cells()), n)
	}

	// Engineer decisions (the Figure 3 user-defined rows).
	if err := s.Accept("po/shipTo/subtotal", "si/shippingInfo/total"); err != nil {
		t.Fatal(err)
	}
	if err := s.Reject("po/shipTo/firstName", "si/shippingInfo/total"); err != nil {
		t.Fatal(err)
	}
	cell, ok := mp.GetCell("po/shipTo/subtotal", "si/shippingInfo/total")
	if !ok || cell.Confidence != 1 || !cell.UserDefined {
		t.Errorf("accepted cell = %+v", cell)
	}

	// Tasks 4–8: code via the mapper; codegen reassembles on events.
	if err := s.WriteCode("po/shipTo", "$shipto", "si/shippingInfo/name",
		`concat($shipto/lastName, concat(", ", $shipto/firstName))`); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCode("po/shipTo", "$shipto", "si/shippingInfo/total",
		`data($shipto/subtotal) * 1.05`); err != nil {
		t.Fatal(err)
	}
	code, err := s.GeneratedCode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "element total { data($shipto/subtotal) * 1.05 }") {
		t.Errorf("generated code:\n%s", code)
	}

	// Task 9: execute on sample documents and verify.
	srcData := &instance.Dataset{Records: []*instance.Record{
		instance.NewRecord("shipTo").Set("firstName", "John").Set("lastName", "Doe").Set("subtotal", "100"),
		instance.NewRecord("shipTo").Set("firstName", "John").Set("lastName", "Doe").Set("subtotal", "100"),
	}}
	out, viols, err := s.Execute(srcData)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Errorf("violations: %v", viols)
	}
	if len(out.Records) != 2 || out.Records[0].GetString("name") != "Doe, John" {
		t.Errorf("output: %v", out.Records)
	}

	// Tasks 10–11: duplicate records link into one.
	merged, _, err := s.IntegrateInstances(out, instance.LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Records) != 1 {
		t.Errorf("after linking: %d records", len(merged.Records))
	}

	// The event log witnessed the §5.2.2 conversation.
	kinds := map[wbmgr.EventKind]int{}
	for _, e := range s.Manager.EventLog() {
		kinds[e.Kind]++
	}
	if kinds[wbmgr.EventSchemaGraph] != 2 {
		t.Errorf("schema-graph events = %d", kinds[wbmgr.EventSchemaGraph])
	}
	if kinds[wbmgr.EventMappingCell] == 0 || kinds[wbmgr.EventMappingVector] != 2 || kinds[wbmgr.EventMappingMatrix] != 2 {
		t.Errorf("event mix = %v", kinds)
	}
}

func TestSessionExecuteWithoutCode(t *testing.T) {
	s := newSession(t)
	if _, _, err := s.Execute(&instance.Dataset{}); err == nil {
		t.Error("execute before mapping should error")
	}
}

func TestSessionRejectsBadSchema(t *testing.T) {
	src, tgt := sessionSchemata()
	bad := model.NewSchema("bad", "er")
	e := bad.AddElement(nil, "x", model.KindAttribute, model.ContainsAttribute)
	e.DomainRef = "ghost"
	if _, err := NewIntegrationSession("s", bad, tgt, "x", "y"); err == nil {
		t.Error("invalid source should fail")
	}
	if _, err := NewIntegrationSession("s", src, bad, "x", "y"); err == nil {
		t.Error("invalid target should fail")
	}
}

func TestSessionDecideUnknownElement(t *testing.T) {
	s := newSession(t)
	if err := s.Accept("ghost", "si/shippingInfo/name"); err == nil {
		t.Error("unknown element should error")
	}
}

func TestLiteratureProfiles(t *testing.T) {
	profiles := LiteratureProfiles()
	if len(profiles) != 5 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	names := map[string]ToolProfile{}
	for _, p := range profiles {
		names[p.Tool] = p
		// The paper's observation: no single system covers everything.
		if p.CoversAll() {
			t.Errorf("%s should not cover all 13 tasks", p.Tool)
		}
	}
	// Matchers only match; Clio maps but does not auto-match.
	if names["cupid"].CoverageCount(ManualSupport) != 1 {
		t.Error("cupid covers exactly matching")
	}
	if names["clio"].Coverage[TaskGenerateCorrespondences] != ManualSupport {
		t.Error("clio matching is manual")
	}
	if names["clio"].Coverage[TaskObjectIdentity] != AutomatedSupport {
		t.Error("clio automates object identity (Skolem functions)")
	}
	// Even the union of the literature systems misses instance
	// integration — which is why the workbench adds its own layer.
	union := Combine("union", profiles...)
	if union.Coverage[TaskLinkInstances] != NoSupport || union.Coverage[TaskCleanData] != NoSupport {
		t.Error("literature union should not cover tasks 10-11")
	}
}

func TestAllPhaseAndSupportNames(t *testing.T) {
	wantPhases := map[Phase]string{
		PhaseSchemaPreparation:    "schema preparation",
		PhaseSchemaMatching:       "schema matching",
		PhaseSchemaMapping:        "schema mapping",
		PhaseInstanceIntegration:  "instance integration",
		PhaseSystemImplementation: "system implementation",
	}
	for p, want := range wantPhases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	wantSupports := map[Support]string{
		NoSupport: "-", ManualSupport: "manual",
		AssistedSupport: "assisted", AutomatedSupport: "automated",
	}
	for s, want := range wantSupports {
		if s.String() != want {
			t.Errorf("Support(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestSameDomainVariants(t *testing.T) {
	a := &model.Domain{Values: []model.DomainValue{{Code: "x"}, {Code: "y"}}}
	b := &model.Domain{Values: []model.DomainValue{{Code: "x"}, {Code: "y"}}}
	c := &model.Domain{Values: []model.DomainValue{{Code: "x"}, {Code: "z"}}}
	d := &model.Domain{Values: []model.DomainValue{{Code: "x"}}}
	if !sameDomain(a, b) {
		t.Error("identical domains should compare equal")
	}
	if sameDomain(a, c) {
		t.Error("different codes should differ")
	}
	if sameDomain(a, d) {
		t.Error("different lengths should differ")
	}
}

// TestSessionMatchKeepsDecisions: a Match after Accept and Reject pins
// both decisions instead of rewriting them as machine cells.
func TestSessionMatchKeepsDecisions(t *testing.T) {
	s := newSession(t)
	if _, err := s.Match(0.2); err != nil {
		t.Fatal(err)
	}
	if err := s.Accept("po/shipTo/subtotal", "si/shippingInfo/total"); err != nil {
		t.Fatal(err)
	}
	if err := s.Reject("po/shipTo/firstName", "si/shippingInfo/name"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Match(0.2); err != nil {
		t.Fatal(err)
	}
	mp, err := s.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	for pair, conf := range map[[2]string]float64{
		{"po/shipTo/subtotal", "si/shippingInfo/total"}: 1,
		{"po/shipTo/firstName", "si/shippingInfo/name"}: -1,
	} {
		c, ok := mp.GetCell(pair[0], pair[1])
		if !ok || c.Confidence != conf || !c.UserDefined || c.SetBy != "engineer" {
			t.Errorf("decision %v after Match = %+v (present=%v)", pair, c, ok)
		}
	}
}
