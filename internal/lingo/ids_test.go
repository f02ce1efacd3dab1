package lingo

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// kernelWords is the vocabulary the kernel property tests draw from:
// ASCII, accented and CJK words, and one longer than jaro's stack
// buffers.
var kernelWords = []string{
	"order", "orders", "ship", "to", "total", "subtotal", "qty", "quantity",
	"école", "ÉCOLE", "Ü", "straße", "価格", "価格コード", "データベース",
	"データベース管理", "a", "",
	strings.Repeat("departure", 9), strings.Repeat("departures", 9),
}

func randomTokens(rng *rand.Rand) []string {
	n := rng.Intn(7) // empty lists included
	out := make([]string, n)
	for i := range out {
		out[i] = kernelWords[rng.Intn(len(kernelWords))] // duplicates included
	}
	return out
}

// interned maps tokens to IDs assigned in sorted string order, as a
// match context assigns them.
type interned map[string]int32

func internAll(lists ...[]string) interned {
	var all []string
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Strings(all)
	ids := interned{}
	for _, s := range all {
		if _, ok := ids[s]; !ok {
			ids[s] = int32(len(ids))
		}
	}
	return ids
}

func (ids interned) set(toks []string) []int32 {
	var out []int32
	for _, s := range toks {
		out = append(out, ids[s])
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	w := 0
	for i, id := range out {
		if i == 0 || id != out[w-1] {
			out[w] = id
			w++
		}
	}
	return out[:w]
}

func (ids interned) vector(v SortedVector) IDVector {
	out := IDVector{Weights: v.Weights, Norm: v.Norm}
	for _, t := range v.Terms {
		out.Terms = append(out.Terms, ids[t])
	}
	return out
}

// jaroWinklerRef is the string Jaro-Winkler as written before the rune
// kernel: both strings converted per call, heap-allocated match flags.
func jaroWinklerRef(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	var j float64
	switch {
	case la == 0 && lb == 0:
		j = 1
	case la == 0 || lb == 0:
		j = 0
	default:
		window := max(la, lb)/2 - 1
		if window < 0 {
			window = 0
		}
		matchA, matchB := make([]bool, la), make([]bool, lb)
		matches := 0
		for i := 0; i < la; i++ {
			for k := max(0, i-window); k < min(lb, i+window+1); k++ {
				if matchB[k] || ra[i] != rb[k] {
					continue
				}
				matchA[i], matchB[k] = true, true
				matches++
				break
			}
		}
		if matches > 0 {
			trans, k := 0, 0
			for i := 0; i < la; i++ {
				if !matchA[i] {
					continue
				}
				for !matchB[k] {
					k++
				}
				if ra[i] != rb[k] {
					trans++
				}
				k++
			}
			m := float64(matches)
			j = (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
		}
	}
	if j == 0 {
		return 0
	}
	l := 0
	for l < la && l < lb && l < 4 && ra[l] == rb[l] {
		l++
	}
	return j + float64(l)*0.1*(1-j)
}

// TestIDKernelsMatchStringForms checks every ID and rune kernel against
// its string form, bit for bit, on random token lists and names.
func TestIDKernelsMatchStringForms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	corpus := NewCorpus()
	docs := make([][]string, 40)
	for i := range docs {
		docs[i] = randomTokens(rng)
		if len(docs[i]) > 0 {
			corpus.AddDocument(docs[i])
		}
	}
	ids := internAll(docs...)
	for n := 0; n < 2000; n++ {
		a, b := randomTokens(rng), randomTokens(rng)
		local := internAll(a, b)
		ia, ib := local.set(a), local.set(b)
		if got, want := JaccardIDs(ia, ib), Jaccard(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("JaccardIDs(%q, %q) = %v, Jaccard = %v", a, b, got, want)
		}
		if got, want := OverlapIDs(ia, ib), OverlapCoefficient(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("OverlapIDs(%q, %q) = %v, OverlapCoefficient = %v", a, b, got, want)
		}

		da, db := docs[rng.Intn(len(docs))], docs[rng.Intn(len(docs))]
		va, vb := corpus.Vector(da).Sorted(), corpus.Vector(db).Sorted()
		if got, want := CosineIDs(ids.vector(va), ids.vector(vb)), CosineSorted(va, vb); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("CosineIDs(%q, %q) = %v, CosineSorted = %v", da, db, got, want)
		}

		x := strings.Join(a, "")
		y := strings.Join(b, "")
		want := jaroWinklerRef(x, y)
		if got := JaroWinklerRunes([]rune(x), []rune(y)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("JaroWinklerRunes(%q, %q) = %v, string form = %v", x, y, got, want)
		}
		if got := JaroWinkler(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("JaroWinkler(%q, %q) = %v, reference = %v", x, y, got, want)
		}
	}
}

var kernelSink float64

// TestIDKernelsAllocateNothing pins the ID and rune kernels at zero
// allocations for names within jaro's stack buffers.
func TestIDKernelsAllocateNothing(t *testing.T) {
	a, b := []int32{1, 3, 5, 9}, []int32{2, 3, 9, 11}
	va := IDVector{Terms: a, Weights: []float64{1, 2, 3, 4}, Norm: 5}
	vb := IDVector{Terms: b, Weights: []float64{4, 3, 2, 1}, Norm: 5}
	ra, rb := []rune("départementCode"), []rune("departmentcodes")
	allocs := testing.AllocsPerRun(100, func() {
		kernelSink = JaccardIDs(a, b) + OverlapIDs(a, b) + CosineIDs(va, vb) + JaroWinklerRunes(ra, rb)
	})
	if allocs != 0 {
		t.Errorf("kernels allocate %v times per call, want 0", allocs)
	}
}
