package rdf

import (
	"fmt"
	"io"
	"testing"
)

// benchGraph builds a graph shaped like a blackboard: s subjects with p
// predicates each.
func benchGraph(subjects, preds int) *Graph {
	g := NewGraph()
	for s := 0; s < subjects; s++ {
		subj := IRI(fmt.Sprintf("urn:s%d", s))
		for p := 0; p < preds; p++ {
			g.Add(Triple{subj, IRI(fmt.Sprintf("urn:p%d", p)), Literal(fmt.Sprintf("v%d-%d", s, p))})
		}
	}
	return g
}

// BenchmarkGraphAdd adds fresh triples to a growing graph (new), and
// churns the dictionary (churn): SetOne of a fresh confidence literal
// on one cell, so each op interns one term and frees another.
func BenchmarkGraphAdd(b *testing.B) {
	b.Run("new", func(b *testing.B) {
		g := NewGraph()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Add(Triple{IRI(fmt.Sprintf("urn:s%d", i%1000)), IRI("urn:p"), IntLiteral(i)})
		}
	})
	b.Run("churn", func(b *testing.B) {
		g := benchGraph(1000, 10)
		cell, conf := IRI("urn:m1/cell/a|b"), IRI("urn:confidence-score")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.SetOne(cell, conf, FloatLiteral(float64(i)))
		}
	})
}

func BenchmarkGraphMatchSP(b *testing.B) {
	g := benchGraph(1000, 10)
	subj := IRI("urn:s500")
	pred := IRI("urn:p5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Match(subj, pred, Wild)
	}
}

func BenchmarkGraphMatchP(b *testing.B) {
	g := benchGraph(1000, 10)
	pred := IRI("urn:p5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Match(Wild, pred, Wild)
	}
}

func BenchmarkQueryJoin(b *testing.B) {
	g := NewGraph()
	for i := 0; i < 1000; i++ {
		g.Add(Triple{IRI(fmt.Sprintf("urn:e%d", i)), IRI("urn:type"), IRI("urn:Element")})
		g.Add(Triple{IRI(fmt.Sprintf("urn:e%d", i)), IRI("urn:name"), Literal(fmt.Sprintf("n%d", i))})
	}
	q := Query{Patterns: []Pattern{
		{Var("e"), IRI("urn:type"), IRI("urn:Element")},
		{Var("e"), IRI("urn:name"), Literal("n500")},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Select(g)
	}
}

func BenchmarkNTriplesRoundTrip(b *testing.B) {
	g := benchGraph(100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text := MarshalNTriples(g)
		if _, err := UnmarshalNTriples(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphClone(b *testing.B) {
	g := benchGraph(500, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Clone()
	}
}

// BenchmarkWriteNTriples writes a ~650k-triple graph, the size of the
// blackboard perfbench onboard snapshots at its 64th op: 65k subjects
// with 10 literal-valued predicates each.
func BenchmarkWriteNTriples(b *testing.B) {
	g := benchGraph(65000, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteNTriples(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.Len()), "triples")
}
