package match

import (
	"strings"
	"testing"

	"repro/internal/model"
)

// fixture schemata: a documented purchase-order source and a shipping
// target, the Figure 2 pair extended with decoys.

func sourceSchema() *model.Schema {
	s := model.NewSchema("purchaseOrder", "xsd")
	po := s.AddElement(nil, "purchaseOrder", model.KindEntity, model.ContainsElement)
	po.Doc = "A purchase order submitted by a customer"
	shipTo := s.AddElement(po, "shipTo", model.KindEntity, model.ContainsElement)
	shipTo.Doc = "Shipping destination address for the order"
	fn := s.AddElement(shipTo, "firstName", model.KindAttribute, model.ContainsAttribute)
	fn.DataType = "string"
	fn.Doc = "Given name of the person receiving the shipment"
	ln := s.AddElement(shipTo, "lastName", model.KindAttribute, model.ContainsAttribute)
	ln.DataType = "string"
	ln.Doc = "Family name of the person receiving the shipment"
	st := s.AddElement(shipTo, "subtotal", model.KindAttribute, model.ContainsAttribute)
	st.DataType = "decimal"
	st.Doc = "Sum of line item prices before tax"
	return s
}

func targetSchema() *model.Schema {
	s := model.NewSchema("shippingInfo", "xsd")
	si := s.AddElement(nil, "shippingInfo", model.KindEntity, model.ContainsElement)
	si.Doc = "Information about where an order ships"
	nm := s.AddElement(si, "name", model.KindAttribute, model.ContainsAttribute)
	nm.DataType = "string"
	nm.Doc = "Full name of the shipment recipient"
	tot := s.AddElement(si, "total", model.KindAttribute, model.ContainsAttribute)
	tot.DataType = "decimal"
	tot.Doc = "Total price of the order including tax"
	return s
}

func TestMatrixBasics(t *testing.T) {
	src, tgt := sourceSchema(), targetSchema()
	m := MatrixOver(src, tgt)
	if len(m.Sources) != 5 || len(m.Targets) != 3 {
		t.Fatalf("matrix is %dx%d", len(m.Sources), len(m.Targets))
	}
	m.Set("purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo", 0.8)
	if got := m.Get("purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo"); got != 0.8 {
		t.Errorf("Get = %g", got)
	}
	if got := m.Get("ghost", "shippingInfo/shippingInfo"); got != 0 {
		t.Errorf("unknown pair = %g", got)
	}
	m.Set("ghost", "also-ghost", 1) // must not panic
	if m.SourceIndex("ghost") != -1 || m.TargetIndex("ghost") != -1 {
		t.Error("unknown ids should index to -1")
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := MatrixOver(sourceSchema(), targetSchema())
	m.SetAt(0, 0, 0.5)
	c := m.Clone()
	c.SetAt(0, 0, -0.5)
	if m.At(0, 0) != 0.5 {
		t.Error("clone aliases original")
	}
}

func TestMatrixClamp(t *testing.T) {
	m := MatrixOver(sourceSchema(), targetSchema())
	m.SetAt(0, 0, 3)
	m.SetAt(1, 1, -3)
	m.Clamp(-0.99, 0.99)
	if m.At(0, 0) != 0.99 || m.At(1, 1) != -0.99 {
		t.Errorf("clamp: %g, %g", m.At(0, 0), m.At(1, 1))
	}
}

func TestAbove(t *testing.T) {
	m := MatrixOver(sourceSchema(), targetSchema())
	m.SetAt(0, 0, 0.9)
	m.SetAt(1, 1, 0.5)
	m.SetAt(2, 2, 0.3)
	got := m.Above(0.5)
	if len(got) != 2 {
		t.Fatalf("Above = %v", got)
	}
	if got[0].Confidence != 0.9 {
		t.Errorf("row-major order broken: %v", got)
	}
}

func TestMaxPerSourceWithTies(t *testing.T) {
	m := MatrixOver(sourceSchema(), targetSchema())
	// Row 0: tie between cols 0 and 2.
	m.SetAt(0, 0, 0.7)
	m.SetAt(0, 2, 0.7)
	m.SetAt(0, 1, 0.2)
	// Row 1: below threshold.
	m.SetAt(1, 0, 0.1)
	got := m.MaxPerSource(0.5)
	if len(got) != 2 {
		t.Fatalf("MaxPerSource = %v", got)
	}
	for _, c := range got {
		if c.Confidence != 0.7 {
			t.Errorf("tie handling: %v", c)
		}
	}
}

func TestStableMatchingOneToOne(t *testing.T) {
	m := MatrixOver(sourceSchema(), targetSchema())
	// Two sources both prefer target 0; higher score wins, other takes
	// second best.
	m.SetAt(3, 1, 0.9) // lastName → name
	m.SetAt(2, 1, 0.8) // firstName → name
	m.SetAt(2, 2, 0.6) // firstName → total (wrong but available)
	got := m.StableMatching(0.5)
	if len(got) != 2 {
		t.Fatalf("StableMatching = %v", got)
	}
	if got[0].Source.Name != "lastName" || got[0].Target.Name != "name" {
		t.Errorf("first pick: %v", got[0])
	}
	// One-to-one: no target repeated.
	seen := map[string]bool{}
	for _, c := range got {
		if seen[c.Target.ID] {
			t.Error("target matched twice")
		}
		seen[c.Target.ID] = true
	}
}

func TestCorrespondenceString(t *testing.T) {
	src := sourceSchema()
	tgt := targetSchema()
	c := Correspondence{src.Elements()[0], tgt.Elements()[0], 0.8}
	if !strings.Contains(c.String(), "+0.80") {
		t.Errorf("String = %q", c.String())
	}
}

func TestMatrixString(t *testing.T) {
	m := MatrixOver(sourceSchema(), targetSchema())
	out := m.String()
	if !strings.Contains(out, "shipTo") || !strings.Contains(out, "total") {
		t.Errorf("matrix render:\n%s", out)
	}
}

func TestStableMatchingDeterministicOnTies(t *testing.T) {
	// Fully tied matrix: the (score desc, i asc, j asc) total order must
	// pick the diagonal, identically on every run.
	src, tgt := sourceSchema(), targetSchema()
	m := MatrixOver(src, tgt)
	for i := range m.Sources {
		for j := range m.Targets {
			m.SetAt(i, j, 0.5)
		}
	}
	want := m.StableMatching(0.25)
	n := len(m.Targets)
	if len(m.Sources) < n {
		n = len(m.Sources)
	}
	if len(want) != n {
		t.Fatalf("tied matching size = %d, want %d", len(want), n)
	}
	for k, c := range want {
		if c.Source != m.Sources[k] || c.Target != m.Targets[k] {
			t.Errorf("pick %d = %v, want diagonal pair", k, c)
		}
	}
	for round := 0; round < 20; round++ {
		got := m.StableMatching(0.25)
		if len(got) != len(want) {
			t.Fatalf("round %d: size changed", round)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("round %d: selection changed at %d: %v vs %v", round, k, got[k], want[k])
			}
		}
	}
}
