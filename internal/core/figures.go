package core

import (
	"fmt"
	"strings"

	"repro/internal/instance"
	"repro/internal/model"
	"repro/internal/xmlschema"
)

// Executable reproductions of the paper's Figures 2 and 3, shared by the
// examples, the benchmarks and cmd/benchreport.

const figure2SourceXSD = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="purchaseOrder">
    <xs:annotation><xs:documentation>A purchase order submitted by a customer</xs:documentation></xs:annotation>
    <xs:complexType>
      <xs:sequence>
        <xs:element name="shipTo">
          <xs:annotation><xs:documentation>Shipping destination for the order</xs:documentation></xs:annotation>
          <xs:complexType>
            <xs:sequence>
              <xs:element name="firstName" type="xs:string"/>
              <xs:element name="lastName" type="xs:string"/>
              <xs:element name="subtotal" type="xs:decimal"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`

const figure2TargetXSD = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="shippingInfo">
    <xs:annotation><xs:documentation>Information about where an order ships</xs:documentation></xs:annotation>
    <xs:complexType>
      <xs:sequence>
        <xs:element name="name" type="xs:string"/>
        <xs:element name="total" type="xs:decimal"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`

// Figure2Schemata loads the Figure 2 schema pair from their XSD sources.
func Figure2Schemata() (*model.Schema, *model.Schema, error) {
	src, err := xmlschema.Load("purchaseOrder", strings.NewReader(figure2SourceXSD))
	if err != nil {
		return nil, nil, err
	}
	tgt, err := xmlschema.Load("shippingInfo", strings.NewReader(figure2TargetXSD))
	if err != nil {
		return nil, nil, err
	}
	return src, tgt, nil
}

// Figure3Result is the evidence produced by RunFigure3.
type Figure3Result struct {
	// Cells is the number of annotated matrix cells (Figure 3 has 12).
	Cells int
	// GeneratedCode is the assembled matrix-level annotation.
	GeneratedCode string
	// Name and Total are the values produced by executing the figure's
	// code on the sample document (John/Doe/100).
	Name  string
	Total float64
}

// RunFigure3 recreates the Figure 3 mapping matrix on a blackboard —
// machine scores (+0.8/−0.4/−0.6) on the shipTo row, user decisions (±1)
// on the attribute rows, variable-name / is-complete / code annotations —
// assembles the mapping, and executes it on the figure's sample values.
func RunFigure3() (*Figure3Result, error) {
	src, tgt, err := Figure2Schemata()
	if err != nil {
		return nil, err
	}
	s, err := NewIntegrationSession("figure3", src, tgt,
		"purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo")
	if err != nil {
		return nil, err
	}
	mp, err := s.Mapping()
	if err != nil {
		return nil, err
	}

	rows := []string{
		"purchaseOrder/purchaseOrder/shipTo",
		"purchaseOrder/purchaseOrder/shipTo/firstName",
		"purchaseOrder/purchaseOrder/shipTo/lastName",
		"purchaseOrder/purchaseOrder/shipTo/subtotal",
	}
	cols := []string{
		"shippingInfo/shippingInfo",
		"shippingInfo/shippingInfo/name",
		"shippingInfo/shippingInfo/total",
	}

	// Machine row.
	mp.SetCell(rows[0], cols[0], +0.8, false, "harmony")
	mp.SetCell(rows[0], cols[1], -0.4, false, "harmony")
	mp.SetCell(rows[0], cols[2], -0.6, false, "harmony")
	// User rows.
	user := map[[2]int]float64{
		{1, 0}: -1, {1, 1}: +1, {1, 2}: -1,
		{2, 0}: -1, {2, 1}: +1, {2, 2}: -1,
		{3, 0}: -1, {3, 1}: -1, {3, 2}: +1,
	}
	for rc, conf := range user {
		mp.SetCell(rows[rc[0]], cols[rc[1]], conf, true, "engineer")
	}
	// Annotations.
	mp.SetRowVariable(rows[0], "$shipto")
	mp.SetRowVariable(rows[1], "$fName")
	mp.SetRowVariable(rows[2], "$lName")
	mp.SetRowVariable(rows[3], "$shipto/subtotal")
	for _, r := range rows[1:] {
		mp.SetRowComplete(r, true)
	}

	if err := s.WriteCode(rows[0], "$shipto", cols[1],
		`concat($shipto/lastName, concat(", ", $shipto/firstName))`); err != nil {
		return nil, err
	}
	if err := s.WriteCode(rows[0], "$shipto", cols[2],
		`data($shipto/subtotal) * 1.05`); err != nil {
		return nil, err
	}

	code, err := s.GeneratedCode()
	if err != nil {
		return nil, err
	}
	out, viols, err := s.Execute(&instance.Dataset{Records: []*instance.Record{
		mkPO("John", "Doe", "100"),
	}})
	if err != nil {
		return nil, err
	}
	if len(viols) != 0 {
		return nil, fmt.Errorf("core: figure 3 execution produced violations: %v", viols)
	}
	if len(out.Records) != 1 {
		return nil, fmt.Errorf("core: figure 3 produced %d records", len(out.Records))
	}
	total, _ := out.Records[0].Get("total").(float64)
	return &Figure3Result{
		Cells:         mp.Len(),
		GeneratedCode: code,
		Name:          out.Records[0].GetString("name"),
		Total:         total,
	}, nil
}
