// Package model defines the canonical schema-graph representation into
// which every loader normalizes its input (paper §4: "Schemata are
// normalized into a canonical graph representation") and which the
// integration blackboard stores (paper §5.1.1: "The IB represents a schema
// as a directed, labeled graph").
//
// A Schema is a rooted, labeled tree of Elements plus a set of named
// Domains (coding schemes). Structural edges carry labels matching the
// paper's controlled vocabulary (contains-table, contains-attribute,
// contains-element); every element carries the three annotations the
// paper singles out for matchers: name, type and documentation.
package model

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// Kind classifies a schema element.
type Kind string

// Element kinds. Relational tables, XML complex elements and ER entities
// all normalize to KindEntity; this is what lets one matcher serve every
// metamodel.
const (
	// KindSchema is the synthetic root of a schema graph.
	KindSchema Kind = "schema"
	// KindEntity is a table, ER entity, or complex XML element.
	KindEntity Kind = "entity"
	// KindAttribute is a column, ER attribute, or XML attribute/leaf.
	KindAttribute Kind = "attribute"
	// KindRelationship is an ER relationship or foreign-key edge.
	KindRelationship Kind = "relationship"
)

// EdgeLabel names a structural edge in the schema graph, following the
// paper's vocabulary (§5.1.1).
type EdgeLabel string

// Structural edge labels.
const (
	ContainsTable     EdgeLabel = "contains-table"
	ContainsElement   EdgeLabel = "contains-element"
	ContainsAttribute EdgeLabel = "contains-attribute"
	References        EdgeLabel = "references"
)

// DomainValue is one code in a coding scheme, with its documentation
// (paper §2: the registry "explicitly enumerates domain values for which
// documentation is also available").
type DomainValue struct {
	Code string
	Doc  string
}

// Domain is a named coding scheme: an enumerated semantic domain.
type Domain struct {
	Name   string
	Doc    string
	Values []DomainValue
}

// Codes returns just the code strings of the domain's values.
func (d *Domain) Codes() []string {
	out := make([]string, len(d.Values))
	for i, v := range d.Values {
		out[i] = v.Code
	}
	return out
}

// Element is a node in a schema graph.
type Element struct {
	// ID is the element's path-unique identifier within its schema,
	// e.g. "purchaseOrder/shipTo/firstName".
	ID string
	// Name is the element's declared name (the name annotation).
	Name string
	// Kind classifies the element (the type annotation's structural part).
	Kind Kind
	// DataType is the declared value type for attributes ("string",
	// "decimal", ...); empty for entities.
	DataType string
	// Doc is the element's documentation (the documentation annotation).
	Doc string
	// DomainRef names a Domain in the owning schema's Domains table, when
	// this attribute draws its values from a coding scheme.
	DomainRef string
	// Key marks attributes that participate in the element's key.
	Key bool
	// Required marks attributes that must be populated (NOT NULL /
	// minOccurs>0); used by target-schema verification.
	Required bool
	// EdgeFromParent is the label of the structural edge from the parent.
	EdgeFromParent EdgeLabel
	// Props carries loader- or tool-specific annotations (RDF allows
	// arbitrary annotation; this is the in-memory equivalent).
	Props map[string]string

	parent   *Element
	children []*Element
}

// Parent returns the element's parent, or nil for the root.
func (e *Element) Parent() *Element { return e.parent }

// Children returns the element's children in declaration order. The
// returned slice must not be mutated.
func (e *Element) Children() []*Element { return e.children }

// Depth returns the element's depth: the root schema node is 0, top-level
// entities are 1, their attributes 2, and so on (paper §4.2: "in an ER
// model, entities appear at level 1, while attributes are at level 2").
func (e *Element) Depth() int {
	d := 0
	for p := e.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Path returns the element IDs from the root (exclusive) to e (inclusive).
func (e *Element) Path() []string {
	var rev []string
	for n := e; n != nil && n.Kind != KindSchema; n = n.parent {
		rev = append(rev, n.Name)
	}
	out := make([]string, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	return out
}

// IsLeaf reports whether the element has no children.
func (e *Element) IsLeaf() bool { return len(e.children) == 0 }

// InSubtree reports whether e is root or a descendant of root.
func (e *Element) InSubtree(root *Element) bool {
	for n := e; n != nil; n = n.parent {
		if n == root {
			return true
		}
	}
	return false
}

// Schema is a canonical schema graph.
type Schema struct {
	// Name identifies the schema (file stem or declared name).
	Name string
	// Format records the source metamodel: "xsd", "sql", "er", or
	// "synthetic".
	Format string
	// Doc is schema-level documentation.
	Doc string
	// Domains holds the schema's named coding schemes.
	Domains map[string]*Domain

	root *Element
	byID map[string]*Element
}

// NewSchema returns an empty schema with a synthetic root element whose
// ID and name equal the schema name.
func NewSchema(name, format string) *Schema {
	s := &Schema{
		Name:    name,
		Format:  format,
		Domains: make(map[string]*Domain),
		byID:    make(map[string]*Element),
	}
	s.root = &Element{ID: name, Name: name, Kind: KindSchema}
	s.byID[name] = s.root
	return s
}

// Clone returns a deep copy of s holding every field the blackboard
// stores: the schema's documentation and domains, and each element's
// annotations, flags and Props. Element IDs are re-derived from names,
// as a parser derives them, so a clone carries the IDs of the schema
// file it was parsed from.
func (s *Schema) Clone() *Schema {
	out := NewSchema(s.Name, s.Format)
	out.Doc = s.Doc
	for name, d := range s.Domains {
		out.Domains[name] = &Domain{Name: d.Name, Doc: d.Doc, Values: append([]DomainValue(nil), d.Values...)}
	}
	var copyTree func(src, dst *Element)
	copyTree = func(src, dst *Element) {
		dst.DataType, dst.Doc, dst.DomainRef = src.DataType, src.Doc, src.DomainRef
		dst.Key, dst.Required = src.Key, src.Required
		dst.Props = maps.Clone(src.Props)
		for _, c := range src.children {
			copyTree(c, out.AddElement(dst, c.Name, c.Kind, c.EdgeFromParent))
		}
	}
	copyTree(s.root, out.root)
	return out
}

// Root returns the schema's synthetic root element.
func (s *Schema) Root() *Element { return s.root }

// AddElement creates a child element under parent and registers it. The
// element ID is parent.ID + "/" + name, suffixed with #n on collision so
// that IDs stay unique. A nil parent means the root.
func (s *Schema) AddElement(parent *Element, name string, kind Kind, edge EdgeLabel) *Element {
	return s.addElement(parent, "", name, kind, edge)
}

// addElement is AddElement under a given, unused ID; "" derives one.
func (s *Schema) addElement(parent *Element, id, name string, kind Kind, edge EdgeLabel) *Element {
	if parent == nil {
		parent = s.root
	}
	if id == "" {
		id = parent.ID + "/" + name
		if _, taken := s.byID[id]; taken {
			for n := 2; ; n++ {
				candidate := fmt.Sprintf("%s#%d", id, n)
				if _, taken := s.byID[candidate]; !taken {
					id = candidate
					break
				}
			}
		}
	}
	e := &Element{
		ID:             id,
		Name:           name,
		Kind:           kind,
		EdgeFromParent: edge,
		parent:         parent,
	}
	parent.children = append(parent.children, e)
	s.byID[id] = e
	return e
}

// Element returns the element with the given ID, or nil.
func (s *Schema) Element(id string) *Element { return s.byID[id] }

// RemoveElement detaches the element with the given ID, and its whole
// subtree, from the schema. It returns the removed element IDs in
// pre-order, or nil when the ID is absent or names the root (which
// cannot be removed).
func (s *Schema) RemoveElement(id string) []string {
	e := s.byID[id]
	if e == nil || e == s.root {
		return nil
	}
	var removed []string
	var collect func(*Element)
	collect = func(n *Element) {
		removed = append(removed, n.ID)
		for _, c := range n.children {
			collect(c)
		}
	}
	collect(e)
	p := e.parent
	for i, c := range p.children {
		if c == e {
			p.children = append(p.children[:i], p.children[i+1:]...)
			break
		}
	}
	e.parent = nil
	for _, rid := range removed {
		delete(s.byID, rid)
	}
	return removed
}

// MustElement returns the element with the given ID, panicking when it is
// absent; intended for tests and examples working with known schemata.
func (s *Schema) MustElement(id string) *Element {
	e := s.byID[id]
	if e == nil {
		panic(fmt.Sprintf("model: schema %q has no element %q", s.Name, id))
	}
	return e
}

// AddDomain registers a coding scheme. Re-adding a name replaces it.
func (s *Schema) AddDomain(d *Domain) {
	s.Domains[d.Name] = d
}

// DomainOf resolves an attribute's coding scheme, or nil.
func (s *Schema) DomainOf(e *Element) *Domain {
	if e == nil || e.DomainRef == "" {
		return nil
	}
	return s.Domains[e.DomainRef]
}

// Walk visits every element in depth-first pre-order (root first),
// stopping early if fn returns false.
func (s *Schema) Walk(fn func(*Element) bool) {
	var rec func(e *Element) bool
	rec = func(e *Element) bool {
		if !fn(e) {
			return false
		}
		for _, c := range e.children {
			if !rec(c) {
				return false
			}
		}
		return true
	}
	rec(s.root)
}

// Elements returns all elements except the root, in pre-order.
func (s *Schema) Elements() []*Element {
	var out []*Element
	s.Walk(func(e *Element) bool {
		if e.Kind != KindSchema {
			out = append(out, e)
		}
		return true
	})
	return out
}

// Len returns the number of elements excluding the root.
func (s *Schema) Len() int { return len(s.byID) - 1 }

// ElementsOfKind returns all elements of the given kind in pre-order.
func (s *Schema) ElementsOfKind(k Kind) []*Element {
	var out []*Element
	s.Walk(func(e *Element) bool {
		if e.Kind == k {
			out = append(out, e)
		}
		return true
	})
	return out
}

// AtDepth returns all elements at exactly the given depth.
func (s *Schema) AtDepth(d int) []*Element {
	var out []*Element
	s.Walk(func(e *Element) bool {
		if e.Depth() == d {
			out = append(out, e)
		}
		return true
	})
	return out
}

// Leaves returns all leaf elements in pre-order.
func (s *Schema) Leaves() []*Element {
	var out []*Element
	s.Walk(func(e *Element) bool {
		if e.Kind != KindSchema && e.IsLeaf() {
			out = append(out, e)
		}
		return true
	})
	return out
}

// Subtree returns root and all of its descendants in pre-order.
func Subtree(root *Element) []*Element {
	var out []*Element
	var rec func(e *Element)
	rec = func(e *Element) {
		out = append(out, e)
		for _, c := range e.children {
			rec(c)
		}
	}
	rec(root)
	return out
}

// Validate checks structural invariants: unique IDs, parent/child
// consistency, domain references resolving, and non-empty names. Loaders
// call this before handing a schema to the blackboard.
func (s *Schema) Validate() error {
	if s.root == nil {
		return fmt.Errorf("model: schema %q has no root", s.Name)
	}
	seen := map[string]bool{}
	var problems []string
	s.Walk(func(e *Element) bool {
		if e.Name == "" {
			problems = append(problems, fmt.Sprintf("element %q has empty name", e.ID))
		}
		if seen[e.ID] {
			problems = append(problems, fmt.Sprintf("duplicate element id %q", e.ID))
		}
		seen[e.ID] = true
		if s.byID[e.ID] != e {
			problems = append(problems, fmt.Sprintf("element %q not registered in index", e.ID))
		}
		for _, c := range e.children {
			if c.parent != e {
				problems = append(problems, fmt.Sprintf("child %q has wrong parent", c.ID))
			}
		}
		if e.DomainRef != "" && s.Domains[e.DomainRef] == nil {
			problems = append(problems, fmt.Sprintf("element %q references unknown domain %q", e.ID, e.DomainRef))
		}
		return true
	})
	if len(problems) > 0 {
		return fmt.Errorf("model: schema %q invalid: %s", s.Name, strings.Join(problems, "; "))
	}
	return nil
}

// String renders the schema as an indented tree, one element per line,
// the rendering used by examples/purchaseorder to reproduce Figure 2.
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema %s (%s)\n", s.Name, s.Format)
	var rec func(e *Element, indent string)
	rec = func(e *Element, indent string) {
		for _, c := range e.children {
			fmt.Fprintf(&b, "%s%s [%s", indent, c.Name, c.Kind)
			if c.DataType != "" {
				fmt.Fprintf(&b, ":%s", c.DataType)
			}
			b.WriteString("]")
			if c.EdgeFromParent != "" {
				fmt.Fprintf(&b, " ←%s", c.EdgeFromParent)
			}
			if c.DomainRef != "" {
				fmt.Fprintf(&b, " domain=%s", c.DomainRef)
			}
			b.WriteString("\n")
			rec(c, indent+"  ")
		}
	}
	rec(s.root, "  ")
	if len(s.Domains) > 0 {
		names := make([]string, 0, len(s.Domains))
		for n := range s.Domains {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			d := s.Domains[n]
			fmt.Fprintf(&b, "  domain %s (%d values)\n", n, len(d.Values))
		}
	}
	return b.String()
}

// Stats summarizes a schema for reporting: counts by kind, documentation
// coverage and lengths. These are the quantities Table 1 reports.
type Stats struct {
	Entities      int
	Attributes    int
	Relationships int
	DomainCount   int
	DomainValues  int
	// DocumentedElements counts entities+relationships with non-empty Doc.
	DocumentedElements int
	// DocumentedAttributes counts attributes with non-empty Doc.
	DocumentedAttributes int
}

// ComputeStats scans the schema.
func ComputeStats(s *Schema) Stats {
	var st Stats
	s.Walk(func(e *Element) bool {
		switch e.Kind {
		case KindEntity:
			st.Entities++
			if e.Doc != "" {
				st.DocumentedElements++
			}
		case KindRelationship:
			st.Relationships++
			if e.Doc != "" {
				st.DocumentedElements++
			}
		case KindAttribute:
			st.Attributes++
			if e.Doc != "" {
				st.DocumentedAttributes++
			}
		}
		return true
	})
	st.DomainCount = len(s.Domains)
	for _, d := range s.Domains {
		st.DomainValues += len(d.Values)
	}
	return st
}
