package lingo

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// kernelWords is the vocabulary the kernel property tests draw from:
// ASCII, accented and CJK words, and two longer than one 64-rune mask
// word.
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
// and mask kernels: both strings converted per call, a scan of the
// match window with heap-allocated match flags. It is the scalar
// reference the mask kernel must reproduce bit for bit.
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

// FuzzJaroWinkler requires the mask kernel to reproduce the scalar
// reference bit for bit on any two strings, through JaroWinkler,
// JaroWinklerRunes, and JaroWinklerMasks over codes the way a match
// context assigns them: one alphabet over both names and more, with
// codes for runes the target lacks.
func FuzzJaroWinkler(f *testing.F) {
	long := strings.Repeat("departureFacility", 9)
	for _, seed := range [][2]string{
		{"martha", "marhta"},
		{"dixon", "dicksonx"},
		{"", ""},
		{"a", ""},
		{strings.Repeat("ab", 31) + "c", strings.Repeat("ba", 31) + "cd"},            // 64-rune target
		{strings.Repeat("ab", 32), strings.Repeat("ba", 32) + "a"},                   // 65-rune target
		{strings.Repeat("facility", 19), "facility"},                                 // long source, short target
		{long[:130], long[3:144]},                                                    // both over 128 runes
		{"société générale", "SOCIÉTÉ générale des chemins"},                         // accented
		{"データベース管理", "管理データベース"},                                                     // CJK
		{"\xffab\xc3", "ab\xfe\xc3"},                                                 // invalid UTF-8
		{strings.Repeat("a", 70), strings.Repeat("b", 60) + strings.Repeat("a", 10)}, // a rune across the word boundary
		{strings.Repeat("é", 70), strings.Repeat("ß", 60) + strings.Repeat("é", 10)}, // the same, not ASCII
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		want := math.Float64bits(jaroWinklerRef(a, b))
		if got := JaroWinkler(a, b); math.Float64bits(got) != want {
			t.Fatalf("JaroWinkler(%q, %q) = %v, reference %v", a, b, got, math.Float64frombits(want))
		}
		ra, rb := []rune(a), []rune(b)
		if got := JaroWinklerRunes(ra, rb); math.Float64bits(got) != want {
			t.Fatalf("JaroWinklerRunes(%q, %q) = %v, reference %v", a, b, got, math.Float64frombits(want))
		}
		codes := map[rune]int32{'#': 0}
		code := func(rs []rune) []int32 {
			out := make([]int32, len(rs))
			for p, r := range rs {
				c, ok := codes[r]
				if !ok {
					c = int32(len(codes))
					codes[r] = c
				}
				out[p] = c
			}
			return out
		}
		ca, cb := code(ra), code(rb)
		masks := make([]uint64, (len(codes)+1)*MaskWords(len(rb)))
		SetPositionMasks(masks, cb)
		if got := JaroWinklerMasks(ca, masks, len(rb)); math.Float64bits(got) != want {
			t.Fatalf("JaroWinklerMasks(%q, %q) = %v, reference %v", a, b, got, math.Float64frombits(want))
		}
	})
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
// allocations for names of up to 64 runes.
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
