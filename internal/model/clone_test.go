package model_test

import (
	"testing"

	"repro/internal/erwin"
	"repro/internal/model"
	"repro/internal/rdf"
	"repro/internal/sqlddl"
)

// TestCloneKeepsWhatTheBlackboardStores checks a clone against its
// original through the blackboard's own representation: both render to
// the same triples, Props (SQL references, ER relationship ends)
// included. Editing the clone leaves the original alone.
func TestCloneKeepsWhatTheBlackboardStores(t *testing.T) {
	for _, load := range []struct {
		file  string
		parse func(string) (*model.Schema, error)
	}{
		{"hr.sql", sqlddl.LoadFile},
		{"faa.er", erwin.LoadFile},
	} {
		orig, err := load.parse("../../testdata/" + load.file)
		if err != nil {
			t.Fatalf("%s: %v", load.file, err)
		}
		props := 0
		for _, e := range orig.Elements() {
			props += len(e.Props)
		}
		if props == 0 {
			t.Fatalf("%s: no element carries Props; the test would not cover them", load.file)
		}
		clone := orig.Clone()
		want, got := rdf.NewGraph(), rdf.NewGraph()
		model.ToRDF(want, orig)
		model.ToRDF(got, clone)
		if !rdf.Equal(want, got) {
			t.Errorf("%s: clone renders %d triples, original %d, and they differ", load.file, got.Len(), want.Len())
		}
		for _, e := range clone.Elements() {
			for k := range e.Props {
				e.Props[k] = "edited"
			}
			e.Name += "X"
		}
		again := rdf.NewGraph()
		model.ToRDF(again, orig)
		if !rdf.Equal(want, again) {
			t.Errorf("%s: editing the clone changed the original", load.file)
		}
	}
}
