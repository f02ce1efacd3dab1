package lingo

import (
	"math"
	"sort"
)

// TF-IDF vector space used by the documentation bag-of-words voter. The
// paper's learning mechanism ("a bag-of-words matcher that weights each
// word based on inverted frequency increases or decreases word weight
// based on which words were most predictive", §4.3) is supported through
// per-word weight overrides.

// Corpus accumulates document frequencies so that IDF can be computed.
type Corpus struct {
	docCount int
	docFreq  map[string]int
	// wordWeight holds learned multiplicative overrides (default 1.0);
	// the Harmony engine adjusts these from user feedback.
	wordWeight map[string]float64
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{
		docFreq:    make(map[string]int),
		wordWeight: make(map[string]float64),
	}
}

// AddDocument records one document's tokens for document-frequency
// purposes. Duplicate tokens within a document count once.
func (c *Corpus) AddDocument(tokens []string) {
	c.docCount++
	seen := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		if !seen[t] {
			seen[t] = true
			c.docFreq[t]++
		}
	}
}

// RemoveDocument takes back one document AddDocument recorded, given its
// tokens (its distinct tokens suffice). Frequencies are integers, so the
// corpus then equals one that never saw the document; a token whose
// frequency reaches zero is forgotten.
func (c *Corpus) RemoveDocument(tokens []string) {
	c.docCount--
	seen := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		if !seen[t] {
			seen[t] = true
			if c.docFreq[t]--; c.docFreq[t] <= 0 {
				delete(c.docFreq, t)
			}
		}
	}
}

// DocCount returns the number of documents added.
func (c *Corpus) DocCount() int { return c.docCount }

// IDF returns the smoothed inverse document frequency of a token.
func (c *Corpus) IDF(token string) float64 {
	df := c.docFreq[token]
	return math.Log(float64(c.docCount+1)/float64(df+1)) + 1
}

// WordWeight returns the learned weight override for a token (1.0 when
// unlearned).
func (c *Corpus) WordWeight(token string) float64 {
	if w, ok := c.wordWeight[token]; ok {
		return w
	}
	return 1
}

// AdjustWordWeight multiplies a token's learned weight by factor, clamped
// to [0.1, 10] so that feedback cannot silence or dominate a word forever.
func (c *Corpus) AdjustWordWeight(token string, factor float64) {
	w := c.WordWeight(token) * factor
	if w < 0.1 {
		w = 0.1
	}
	if w > 10 {
		w = 10
	}
	c.wordWeight[token] = w
}

// ResetWordWeights clears all learned word weights.
func (c *Corpus) ResetWordWeights() {
	c.wordWeight = make(map[string]float64)
}

// Vector is a sparse TF-IDF vector.
type Vector map[string]float64

// Vector builds the TF-IDF vector of the given tokens against the corpus,
// applying learned word weights.
func (c *Corpus) Vector(tokens []string) Vector {
	if len(tokens) == 0 {
		return nil
	}
	tf := make(map[string]int, len(tokens))
	for _, t := range tokens {
		tf[t]++
	}
	v := make(Vector, len(tf))
	for t, f := range tf {
		v[t] = c.TermWeight(t, f)
	}
	return v
}

// TermWeight is the TF-IDF weight of a term that occurs tf times in one
// document, with the term's learned weight applied.
func (c *Corpus) TermWeight(term string, tf int) float64 {
	return (1 + math.Log(float64(tf))) * c.IDF(term) * c.WordWeight(term)
}

// Cosine returns the cosine similarity of two sparse vectors in [0,1].
// Terms are accumulated in sorted order so the floating-point sums — and
// therefore the result — are bit-identical across calls; map iteration
// order would otherwise leak ULP-level nondeterminism into every score.
func Cosine(a, b Vector) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return CosineSorted(a.Sorted(), b.Sorted())
}

// SortedVector is a Vector frozen into sorted-term order with its
// Euclidean norm precomputed. It makes repeated cosine computations
// deterministic, hash-free and allocation-free — the representation the
// documentation voter sweeps O(|S|·|T|) pairs with.
type SortedVector struct {
	Terms   []string
	Weights []float64
	Norm    float64
}

// Sorted freezes the vector into term-sorted order.
func (v Vector) Sorted() SortedVector {
	terms := make([]string, 0, len(v))
	for t := range v {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	weights := make([]float64, len(terms))
	var norm float64
	for i, t := range terms {
		w := v[t]
		weights[i] = w
		norm += w * w
	}
	return SortedVector{Terms: terms, Weights: weights, Norm: math.Sqrt(norm)}
}

// CosineSorted returns the cosine similarity of two sorted vectors via a
// merge join over their term lists. Equivalent to Cosine up to summation
// order, and deterministic because that order is fixed.
func CosineSorted(a, b SortedVector) float64 {
	if len(a.Terms) == 0 || len(b.Terms) == 0 || a.Norm == 0 || b.Norm == 0 {
		return 0
	}
	var dot float64
	i, j := 0, 0
	for i < len(a.Terms) && j < len(b.Terms) {
		switch {
		case a.Terms[i] == b.Terms[j]:
			dot += a.Weights[i] * b.Weights[j]
			i++
			j++
		case a.Terms[i] < b.Terms[j]:
			i++
		default:
			j++
		}
	}
	return dot / (a.Norm * b.Norm)
}

// IDVector is a SortedVector over interned term IDs. When IDs are
// assigned in sorted string order, CosineIDs adds its products in the
// order CosineSorted adds them over the terms' strings, so the two
// return bit-identical results.
type IDVector struct {
	Terms   []int32
	Weights []float64
	Norm    float64
}

// CosineIDs is CosineSorted over ID vectors: a merge join over the
// ascending term IDs, with no allocation.
func CosineIDs(a, b IDVector) float64 {
	if len(a.Terms) == 0 || len(b.Terms) == 0 || a.Norm == 0 || b.Norm == 0 {
		return 0
	}
	var dot float64
	i, j := 0, 0
	for i < len(a.Terms) && j < len(b.Terms) {
		switch {
		case a.Terms[i] == b.Terms[j]:
			dot += a.Weights[i] * b.Weights[j]
			i++
			j++
		case a.Terms[i] < b.Terms[j]:
			i++
		default:
			j++
		}
	}
	return dot / (a.Norm * b.Norm)
}
