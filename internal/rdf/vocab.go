package rdf

// Well-known RDF/RDFS vocabulary. The paper motivates RDF for the
// blackboard because "one can use RDF Schema to define useful built-in
// link types while still offering easy extensibility" (§5.1); the
// blackboard's controlled vocabulary builds on these.

// Core RDF/RDFS IRIs.
var (
	// RDFType is rdf:type.
	RDFType = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
	// RDFSSubClassOf is rdfs:subClassOf.
	RDFSSubClassOf = IRI("http://www.w3.org/2000/01/rdf-schema#subClassOf")
)

// TypeOf returns the rdf:type of s, or the zero Term.
func TypeOf(g *Graph, s Term) Term { return g.One(s, RDFType) }

// InstancesOf returns all subjects with rdf:type class, in deterministic
// order, including instances of subclasses (one level of rdfs:subClassOf
// closure per hop, computed transitively).
func InstancesOf(g *Graph, class Term) []Term {
	seen := map[Term]bool{}
	var out []Term
	for _, c := range subclassClosure(g, class) {
		for _, s := range g.Subjects(RDFType, c) {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sortTerms(out)
	return out
}

// subclassClosure returns class plus every transitive rdfs:subClassOf
// descendant.
func subclassClosure(g *Graph, class Term) []Term {
	seen := map[Term]bool{class: true}
	stack := []Term{class}
	out := []Term{class}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, sub := range g.Subjects(RDFSSubClassOf, c) {
			if !seen[sub] {
				seen[sub] = true
				stack = append(stack, sub)
				out = append(out, sub)
			}
		}
	}
	return out
}

func sortTerms(ts []Term) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && compareTerm(ts[j], ts[j-1]) < 0; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
