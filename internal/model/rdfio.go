package model

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// RDF (de)serialization of schema graphs, implementing the blackboard
// representation of §5.1.1: elements become IRI nodes, structural edges
// become object properties (contains-table, contains-attribute,
// contains-element), and the name/type/documentation annotations become
// data properties.

// Vocabulary IRIs for the schema portion of the blackboard.
const (
	wbNS = "urn:workbench:"

	classSchema  = wbNS + "Schema"
	classElement = wbNS + "Element"
	classDomain  = wbNS + "Domain"
	classValue   = wbNS + "DomainValue"
)

// Schema-graph predicates.
var (
	PredName       = rdf.IRI(wbNS + "name")
	PredDoc        = rdf.IRI(wbNS + "documentation")
	PredKind       = rdf.IRI(wbNS + "kind")
	PredDataType   = rdf.IRI(wbNS + "data-type")
	PredFormat     = rdf.IRI(wbNS + "format")
	PredKey        = rdf.IRI(wbNS + "is-key")
	PredRequired   = rdf.IRI(wbNS + "is-required")
	PredDomainRef  = rdf.IRI(wbNS + "has-domain")
	PredOrder      = rdf.IRI(wbNS + "child-order")
	PredProp       = rdf.IRI(wbNS + "prop:") // prefix for Props keys
	PredHasValue   = rdf.IRI(wbNS + "has-value")
	PredValueCode  = rdf.IRI(wbNS + "value-code")
	PredValueDoc   = rdf.IRI(wbNS + "value-doc")
	PredRootOf     = rdf.IRI(wbNS + "root")
	ClassSchemaT   = rdf.IRI(classSchema)
	ClassElementT  = rdf.IRI(classElement)
	ClassDomainT   = rdf.IRI(classDomain)
	ClassValueT    = rdf.IRI(classValue)
	PredContains   = map[EdgeLabel]rdf.Term{} // filled in init
	edgeFromPredIR = map[rdf.Term]EdgeLabel{}
)

func init() {
	for _, l := range []EdgeLabel{ContainsTable, ContainsElement, ContainsAttribute, References} {
		t := rdf.IRI(wbNS + string(l))
		PredContains[l] = t
		edgeFromPredIR[t] = l
	}
}

// SchemaIRI returns the blackboard IRI identifying a schema by name.
func SchemaIRI(name string) rdf.Term { return rdf.IRI(wbNS + "schema/" + name) }

// ElementIRI returns the blackboard IRI for an element of a schema.
func ElementIRI(schemaName, elementID string) rdf.Term {
	return rdf.IRI(wbNS + "schema/" + schemaName + "#" + elementID)
}

// DomainIRI returns the blackboard IRI for a named domain of a schema.
func DomainIRI(schemaName, domainName string) rdf.Term {
	return rdf.IRI(wbNS + "schema/" + schemaName + "/domain/" + domainName)
}

// ToRDF writes the schema into g and returns the schema's IRI node.
func ToRDF(g *rdf.Graph, s *Schema) rdf.Term {
	sNode := SchemaIRI(s.Name)
	g.Add(rdf.Triple{S: sNode, P: rdf.RDFType, O: ClassSchemaT})
	g.SetOne(sNode, PredName, rdf.Literal(s.Name))
	g.SetOne(sNode, PredFormat, rdf.Literal(s.Format))
	if s.Doc != "" {
		g.SetOne(sNode, PredDoc, rdf.Literal(s.Doc))
	}
	rootNode := ElementIRI(s.Name, s.root.ID)
	g.SetOne(sNode, PredRootOf, rootNode)

	var writeElem func(e *Element) rdf.Term
	writeElem = func(e *Element) rdf.Term {
		n := ElementIRI(s.Name, e.ID)
		g.Add(rdf.Triple{S: n, P: rdf.RDFType, O: ClassElementT})
		g.SetOne(n, PredName, rdf.Literal(e.Name))
		g.SetOne(n, PredKind, rdf.Literal(string(e.Kind)))
		if e.DataType != "" {
			g.SetOne(n, PredDataType, rdf.Literal(e.DataType))
		}
		if e.Doc != "" {
			g.SetOne(n, PredDoc, rdf.Literal(e.Doc))
		}
		if e.Key {
			g.SetOne(n, PredKey, rdf.BoolLiteral(true))
		}
		if e.Required {
			g.SetOne(n, PredRequired, rdf.BoolLiteral(true))
		}
		if e.DomainRef != "" {
			g.SetOne(n, PredDomainRef, DomainIRI(s.Name, e.DomainRef))
		}
		for k, v := range e.Props {
			g.SetOne(n, rdf.IRI(PredProp.Value()+k), rdf.Literal(v))
		}
		for i, c := range e.children {
			cn := writeElem(c)
			edge := c.EdgeFromParent
			if edge == "" {
				edge = defaultEdge(c.Kind)
			}
			g.Add(rdf.Triple{S: n, P: PredContains[edge], O: cn})
			g.SetOne(cn, PredOrder, rdf.IntLiteral(i))
		}
		return n
	}
	writeElem(s.root)

	for _, name := range sortedDomainNames(s) {
		d := s.Domains[name]
		dn := DomainIRI(s.Name, d.Name)
		g.Add(rdf.Triple{S: dn, P: rdf.RDFType, O: ClassDomainT})
		g.SetOne(dn, PredName, rdf.Literal(d.Name))
		if d.Doc != "" {
			g.SetOne(dn, PredDoc, rdf.Literal(d.Doc))
		}
		g.Add(rdf.Triple{S: sNode, P: PredContains[ContainsElement], O: dn})
		for i, v := range d.Values {
			vn := rdf.IRI(dn.Value() + "/" + fmt.Sprint(i))
			g.Add(rdf.Triple{S: vn, P: rdf.RDFType, O: ClassValueT})
			g.SetOne(vn, PredValueCode, rdf.Literal(v.Code))
			if v.Doc != "" {
				g.SetOne(vn, PredValueDoc, rdf.Literal(v.Doc))
			}
			g.SetOne(vn, PredOrder, rdf.IntLiteral(i))
			g.Add(rdf.Triple{S: dn, P: PredHasValue, O: vn})
		}
	}
	return sNode
}

func defaultEdge(k Kind) EdgeLabel {
	if k == KindAttribute {
		return ContainsAttribute
	}
	return ContainsElement
}

func sortedDomainNames(s *Schema) []string {
	names := make([]string, 0, len(s.Domains))
	for n := range s.Domains {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FromRDF reconstructs a schema from the blackboard graph given its name.
// Each element keeps the ID its IRI stores, so one renamed in place
// reads back under the ID it was put with; a schema whose root is stored
// under another name (a full copy kept as "name@v<n>") re-derives them.
func FromRDF(g *rdf.Graph, name string) (*Schema, error) {
	sNode := SchemaIRI(name)
	if rdf.TypeOf(g, sNode) != ClassSchemaT {
		return nil, fmt.Errorf("model: no schema %q in graph", name)
	}
	s := NewSchema(name, g.One(sNode, PredFormat).Value())
	s.Doc = g.One(sNode, PredDoc).Value()

	rootNode := g.One(sNode, PredRootOf)
	if rootNode.IsZero() {
		return nil, fmt.Errorf("model: schema %q has no root node", name)
	}
	keepIDs, idPrefix := rootNode == ElementIRI(name, name), sNode.Value()+"#"

	var readChildren func(node rdf.Term, parent *Element) error
	readChildren = func(node rdf.Term, parent *Element) error {
		type kid struct {
			node  rdf.Term
			edge  EdgeLabel
			order int
		}
		var kids []kid
		for pred, edge := range edgeFromPredIR {
			for _, cn := range g.Objects(node, pred) {
				if rdf.TypeOf(g, cn) != ClassElementT {
					continue // domains hang off the schema node too
				}
				ord, _ := g.One(cn, PredOrder).Int()
				kids = append(kids, kid{cn, edge, ord})
			}
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].order < kids[j].order })
		for _, k := range kids {
			id, stored := strings.CutPrefix(k.node.Value(), idPrefix)
			if !stored || !keepIDs || s.byID[id] != nil {
				id = ""
			}
			e := s.addElement(parent, id, g.One(k.node, PredName).Value(), Kind(g.One(k.node, PredKind).Value()), k.edge)
			e.DataType = g.One(k.node, PredDataType).Value()
			e.Doc = g.One(k.node, PredDoc).Value()
			if v, err := g.One(k.node, PredKey).Bool(); err == nil && v {
				e.Key = true
			}
			if v, err := g.One(k.node, PredRequired).Bool(); err == nil && v {
				e.Required = true
			}
			if d := g.One(k.node, PredDomainRef); !d.IsZero() {
				// Domain IRI suffix after "/domain/".
				if i := strings.LastIndex(d.Value(), "/domain/"); i >= 0 {
					e.DomainRef = d.Value()[i+len("/domain/"):]
				}
			}
			// Props.
			g.Visit(k.node, rdf.Wild, rdf.Wild, func(t rdf.Triple) bool {
				if strings.HasPrefix(t.P.Value(), PredProp.Value()) {
					if e.Props == nil {
						e.Props = map[string]string{}
					}
					e.Props[strings.TrimPrefix(t.P.Value(), PredProp.Value())] = t.O.Value()
				}
				return true
			})
			if err := readChildren(k.node, e); err != nil {
				return err
			}
		}
		return nil
	}
	if err := readChildren(rootNode, s.root); err != nil {
		return nil, err
	}

	// Domains.
	for _, dn := range g.Objects(sNode, PredContains[ContainsElement]) {
		if rdf.TypeOf(g, dn) != ClassDomainT {
			continue
		}
		d := &Domain{
			Name: g.One(dn, PredName).Value(),
			Doc:  g.One(dn, PredDoc).Value(),
		}
		type dv struct {
			v     DomainValue
			order int
		}
		var dvs []dv
		for _, vn := range g.Objects(dn, PredHasValue) {
			ord, _ := g.One(vn, PredOrder).Int()
			dvs = append(dvs, dv{DomainValue{
				Code: g.One(vn, PredValueCode).Value(),
				Doc:  g.One(vn, PredValueDoc).Value(),
			}, ord})
		}
		sort.Slice(dvs, func(i, j int) bool { return dvs[i].order < dvs[j].order })
		for _, x := range dvs {
			d.Values = append(d.Values, x.v)
		}
		s.AddDomain(d)
	}
	return s, nil
}

// SchemaTriples returns every triple whose subject is a node of the
// stored schema name: the schema node, its root and the elements below
// it, its domains and their values. It walks the index from the schema
// node along the edges FromRDF follows (root, the structural edges,
// has-value), so it costs the schema's size, not the graph's.
func SchemaTriples(g *rdf.Graph, name string) []rdf.Triple {
	sNode := SchemaIRI(name)
	var out []rdf.Triple
	seen := map[rdf.Term]bool{sNode: true}
	for todo := []rdf.Term{sNode}; len(todo) > 0; {
		n := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		from := len(out)
		g.Visit(n, rdf.Wild, rdf.Wild, func(t rdf.Triple) bool {
			out = append(out, t)
			return true
		})
		for _, t := range out[from:] {
			_, contains := edgeFromPredIR[t.P]
			if (contains || t.P == PredRootOf || t.P == PredHasValue) && !seen[t.O] {
				seen[t.O] = true
				todo = append(todo, t.O)
			}
		}
	}
	return out
}

// SchemaNames lists the names of all schemata stored in the graph.
func SchemaNames(g *rdf.Graph) []string {
	var names []string
	for _, n := range rdf.InstancesOf(g, ClassSchemaT) {
		names = append(names, g.One(n, PredName).Value())
	}
	sort.Strings(names)
	return names
}
