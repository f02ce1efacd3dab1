package lingo

import "unicode/utf8"

// String-similarity primitives used by the name-based match voters.

// Levenshtein returns the edit distance between a and b (unit costs).
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// EditSimilarity maps Levenshtein distance to [0,1]: 1 for identical
// strings, 0 for completely different ones.
func EditSimilarity(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len([]rune(a)), len([]rune(b))
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(m)
}

// JaroWinkler returns the Jaro-Winkler similarity in [0,1], the metric
// of choice for short identifier-like strings (rewards common prefixes,
// which abbreviation-heavy schema names exhibit). It converts both
// strings to runes and delegates to JaroWinklerRunes.
func JaroWinkler(a, b string) float64 {
	return JaroWinklerRunes([]rune(a), []rune(b))
}

// JaroWinklerRunes is JaroWinkler over rune slices, for callers that keep
// names as runes (the match voters' feature rows). It allocates nothing
// for names of up to jaroStackRunes runes.
func JaroWinklerRunes(ra, rb []rune) float64 {
	j := jaro(ra, rb)
	if j == 0 {
		return 0
	}
	// Common prefix length, up to 4.
	l := 0
	for l < len(ra) && l < len(rb) && l < 4 && ra[l] == rb[l] {
		l++
	}
	const p = 0.1
	return j + float64(l)*p*(1-j)
}

// jaroStackRunes bounds the name length whose match flags jaro keeps on
// the stack; longer names allocate theirs.
const jaroStackRunes = 64

func jaro(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	var bufA, bufB [jaroStackRunes]bool
	matchA, matchB := bufA[:], bufB[:]
	if la > jaroStackRunes {
		matchA = make([]bool, la)
	}
	if lb > jaroStackRunes {
		matchB = make([]bool, lb)
	}
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Transpositions.
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// NGrams returns the multiset of character n-grams of s as a frequency
// map, padding with '#' so that edges carry signal (standard trigram
// practice in schema matching).
func NGrams(s string, n int) map[string]int {
	if n <= 0 {
		return nil
	}
	// Capacity in runes, not bytes: len(s) over-sizes the buffer for any
	// multi-byte name, and the gram loop below is rune-indexed anyway.
	pad := make([]rune, 0, utf8.RuneCountInString(s)+2*(n-1))
	for i := 0; i < n-1; i++ {
		pad = append(pad, '#')
	}
	pad = append(pad, []rune(s)...)
	for i := 0; i < n-1; i++ {
		pad = append(pad, '#')
	}
	grams := make(map[string]int)
	for i := 0; i+n <= len(pad); i++ {
		grams[string(pad[i:i+n])]++
	}
	return grams
}

// TrigramSimilarity returns the Dice coefficient over character trigrams.
func TrigramSimilarity(a, b string) float64 {
	ga, gb := NGrams(a, 3), NGrams(b, 3)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	inter, total := 0, 0
	for g, ca := range ga {
		total += ca
		if cb, ok := gb[g]; ok {
			if ca < cb {
				inter += ca
			} else {
				inter += cb
			}
		}
	}
	for _, cb := range gb {
		total += cb
	}
	if total == 0 {
		return 0
	}
	return 2 * float64(inter) / float64(total)
}

// Jaccard returns the Jaccard similarity of two token sets.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	setA := make(map[string]bool, len(a))
	for _, t := range a {
		setA[t] = true
	}
	setB := make(map[string]bool, len(b))
	for _, t := range b {
		setB[t] = true
	}
	inter := 0
	for t := range setA {
		if setB[t] {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// OverlapCoefficient returns |A∩B| / min(|A|,|B|) over token sets; used by
// the domain-value voter where one coding scheme may be a subset of the
// other.
func OverlapCoefficient(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	setA := make(map[string]bool, len(a))
	for _, t := range a {
		setA[t] = true
	}
	setB := make(map[string]bool, len(b))
	for _, t := range b {
		setB[t] = true
	}
	inter := 0
	for t := range setA {
		if setB[t] {
			inter++
		}
	}
	m := len(setA)
	if len(setB) < m {
		m = len(setB)
	}
	if m == 0 {
		return 0
	}
	return float64(inter) / float64(m)
}

// JaccardIDs is Jaccard over two sorted, duplicate-free lists of interned
// token IDs. It returns exactly what Jaccard returns for the tokens' sets
// (1 for two empty sets) and allocates nothing.
func JaccardIDs(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := intersectIDs(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// OverlapIDs is OverlapCoefficient over two sorted, duplicate-free ID
// lists: 0 when either is empty, and no allocation.
func OverlapIDs(a, b []int32) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return float64(intersectIDs(a, b)) / float64(min(len(a), len(b)))
}

// intersectIDs counts the IDs two sorted, duplicate-free lists share.
func intersectIDs(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}
