package lingo

import (
	"maps"
	"math"
	"math/rand"
	"testing"
)

func TestCorpusIDF(t *testing.T) {
	c := NewCorpus()
	c.AddDocument([]string{"code", "airport"})
	c.AddDocument([]string{"code", "runway"})
	c.AddDocument([]string{"code", "code"}) // dup within doc counts once
	if c.DocCount() != 3 {
		t.Fatalf("DocCount = %d", c.DocCount())
	}
	if c.docFreq["code"] != 3 {
		t.Errorf("df(code) = %d, want 3", c.docFreq["code"])
	}
	// Rarer words get higher IDF.
	if c.IDF("runway") <= c.IDF("code") {
		t.Error("rare word should have higher IDF")
	}
	// Unknown words get the highest IDF.
	if c.IDF("zzz") <= c.IDF("runway") {
		t.Error("unseen word should have highest IDF")
	}
}

// TestCorpusRemoveDocumentMatchesFreshCorpus adds and removes seeded
// documents and checks the corpus after every step against one built
// from the documents left: the same frequency map (so no token is left
// at frequency zero) and bit-identical IDF for every token.
func TestCorpusRemoveDocumentMatchesFreshCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vocab := []string{"code", "airport", "runway", "order", "total", "amount", "zzz"}
	var live [][]string
	c := NewCorpus()
	for step := 0; step < 300; step++ {
		if len(live) > 0 && rng.Intn(5) < 2 {
			k := rng.Intn(len(live))
			c.RemoveDocument(live[k])
			live = append(live[:k], live[k+1:]...)
		} else {
			doc := make([]string, 1+rng.Intn(5))
			for i := range doc {
				doc[i] = vocab[rng.Intn(len(vocab)-1)]
			}
			c.AddDocument(doc)
			live = append(live, doc)
		}
		fresh := NewCorpus()
		for _, doc := range live {
			fresh.AddDocument(doc)
		}
		if c.DocCount() != fresh.DocCount() || !maps.Equal(c.docFreq, fresh.docFreq) {
			t.Fatalf("step %d: %d docs %v, fresh corpus %d docs %v",
				step, c.DocCount(), c.docFreq, fresh.DocCount(), fresh.docFreq)
		}
		for _, tok := range vocab {
			if a, b := c.IDF(tok), fresh.IDF(tok); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("step %d: IDF(%q) = %v, fresh corpus %v", step, tok, a, b)
			}
		}
	}
}

func TestVectorAndCosine(t *testing.T) {
	c := NewCorpus()
	c.AddDocument([]string{"aircraft", "code"})
	c.AddDocument([]string{"runway", "code"})
	v1 := c.Vector([]string{"aircraft", "code"})
	v2 := c.Vector([]string{"aircraft", "code"})
	if got := Cosine(v1, v2); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical vectors cosine = %g", got)
	}
	v3 := c.Vector([]string{"runway"})
	if got := Cosine(v1, v3); got != 0 {
		t.Errorf("disjoint cosine = %g", got)
	}
	v4 := c.Vector([]string{"aircraft"})
	mid := Cosine(v1, v4)
	if mid <= 0 || mid >= 1 {
		t.Errorf("partial cosine = %g, want in (0,1)", mid)
	}
}

func TestCosineEmpty(t *testing.T) {
	c := NewCorpus()
	if Cosine(nil, c.Vector([]string{"a"})) != 0 {
		t.Error("nil vector cosine should be 0")
	}
	if c.Vector(nil) != nil {
		t.Error("Vector(nil) should be nil")
	}
}

func TestCosineSymmetric(t *testing.T) {
	c := NewCorpus()
	c.AddDocument([]string{"a", "b", "c"})
	v1 := c.Vector([]string{"a", "b"})
	v2 := c.Vector([]string{"b", "c", "d"})
	if math.Abs(Cosine(v1, v2)-Cosine(v2, v1)) > 1e-12 {
		t.Error("cosine not symmetric")
	}
}

func TestWordWeightLearning(t *testing.T) {
	c := NewCorpus()
	c.AddDocument([]string{"code", "airport"})
	if c.WordWeight("code") != 1 {
		t.Error("default weight should be 1")
	}
	c.AdjustWordWeight("code", 2)
	if c.WordWeight("code") != 2 {
		t.Errorf("weight = %g, want 2", c.WordWeight("code"))
	}
	// Clamping.
	for i := 0; i < 20; i++ {
		c.AdjustWordWeight("code", 2)
	}
	if c.WordWeight("code") != 10 {
		t.Errorf("weight should clamp at 10, got %g", c.WordWeight("code"))
	}
	for i := 0; i < 40; i++ {
		c.AdjustWordWeight("code", 0.5)
	}
	if c.WordWeight("code") != 0.1 {
		t.Errorf("weight should clamp at 0.1, got %g", c.WordWeight("code"))
	}
	// Learned weight flows into vectors.
	v := c.Vector([]string{"code"})
	c.ResetWordWeights()
	v2 := c.Vector([]string{"code"})
	if v["code"] >= v2["code"] {
		t.Error("down-weighted word should have smaller TF-IDF weight")
	}
}

func TestVectorTermFrequencyDamping(t *testing.T) {
	c := NewCorpus()
	c.AddDocument([]string{"a"})
	v1 := c.Vector([]string{"a"})
	v3 := c.Vector([]string{"a", "a", "a"})
	if v3["a"] <= v1["a"] {
		t.Error("higher TF should weigh more")
	}
	if v3["a"] >= 3*v1["a"] {
		t.Error("TF should be log-damped, not linear")
	}
}

func TestCosineDeterministicAcrossCalls(t *testing.T) {
	c := NewCorpus()
	docs := [][]string{
		{"price", "total", "order", "tax", "sum"},
		{"price", "cost", "amount", "order"},
		{"ship", "address", "city", "zip", "order", "total"},
	}
	for _, d := range docs {
		c.AddDocument(d)
	}
	a := c.Vector(docs[0])
	b := c.Vector(docs[2])
	want := Cosine(a, b)
	for i := 0; i < 100; i++ {
		if got := Cosine(a, b); got != want {
			t.Fatalf("Cosine nondeterministic: %v vs %v", got, want)
		}
		// Rebuilt maps must not change the result either.
		if got := Cosine(c.Vector(docs[0]), c.Vector(docs[2])); got != want {
			t.Fatalf("Cosine over rebuilt vectors: %v vs %v", got, want)
		}
	}
}

func TestCosineSortedMatchesCosine(t *testing.T) {
	c := NewCorpus()
	c.AddDocument([]string{"alpha", "beta", "gamma"})
	c.AddDocument([]string{"beta", "delta"})
	a := c.Vector([]string{"alpha", "beta", "beta", "gamma"})
	b := c.Vector([]string{"beta", "delta", "gamma"})
	if got, want := CosineSorted(a.Sorted(), b.Sorted()), Cosine(a, b); got != want {
		t.Errorf("CosineSorted = %v, Cosine = %v", got, want)
	}
	// Symmetry and empty-vector behavior.
	if CosineSorted(a.Sorted(), b.Sorted()) != CosineSorted(b.Sorted(), a.Sorted()) {
		t.Error("CosineSorted not symmetric")
	}
	if CosineSorted(Vector{}.Sorted(), a.Sorted()) != 0 {
		t.Error("empty vector should score 0")
	}
}
