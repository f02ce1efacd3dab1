package lingo

import (
	"math/bits"
	"slices"
	"unicode/utf8"
)

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

// maskRunes is the name length one mask word covers; names up to it
// score without allocating.
const maskRunes = 64

// JaroWinklerRunes is JaroWinkler over rune slices, for callers without a
// match context, such as record linkage. It codes each rune by its first
// position in b, or len(b) for a rune b lacks, sets b's position masks
// under those codes, and scores with JaroWinklerMasks. The masks take
// (len(b)+1) × MaskWords(len(b)) words: on the stack up to 64 runes, so
// two such names allocate nothing, and 128 KB at 1,000 runes. An ASCII
// rune finds its first position in a table, any other rune by a search
// of b.
func JaroWinklerRunes(ra, rb []rune) float64 {
	lb := len(rb)
	w := MaskWords(lb)
	var maskBuf [maskRunes + 1]uint64
	masks := maskBuf[:]
	if n := (lb + 1) * w; n > len(masks) {
		masks = make([]uint64, n)
	}
	// first holds 1 + the first position in b of each ASCII rune b holds.
	var first [utf8.RuneSelf]int32
	for p, r := range rb {
		q := p
		if uint32(r) < utf8.RuneSelf {
			if f := first[r]; f > 0 {
				q = int(f) - 1
			} else {
				first[r] = int32(p) + 1
			}
		} else if i := slices.Index(rb[:p], r); i >= 0 {
			q = i
		}
		masks[q*w+p/maskRunes] |= 1 << (uint(p) % maskRunes)
	}
	var codeBuf [maskRunes]int32
	codes := codeBuf[:0]
	for _, r := range ra {
		q := lb
		if uint32(r) < utf8.RuneSelf {
			if f := first[r]; f > 0 {
				q = int(f) - 1
			}
		} else if i := slices.Index(rb, r); i >= 0 {
			q = i
		}
		codes = append(codes, int32(q))
	}
	return JaroWinklerMasks(codes, masks, lb)
}

// MaskWords is the number of uint64 words one position mask of a name of
// n runes takes.
func MaskWords(n int) int { return (n + maskRunes - 1) / maskRunes }

// SetPositionMasks sets, for each position p of a name given as rune
// codes, bit p%64 of word p/64 of code codes[p]'s mask: code c's mask is
// masks[c*w : c*w+w], with w = MaskWords(len(codes)). masks must be zero
// and hold a mask for every code.
func SetPositionMasks(masks []uint64, codes []int32) {
	w := MaskWords(len(codes))
	for p, c := range codes {
		masks[int(c)*w+int(uint(p)/maskRunes)] |= 1 << (uint(p) % maskRunes)
	}
}

// JaroWinklerMasks is JaroWinkler of names a and b, with a given as rune
// codes and b, of lb runes, as the position masks SetPositionMasks sets
// for b under the same codes: every code of a must have a mask, zero for
// a rune b lacks. It returns JaroWinkler of the names bit for bit.
//
// Jaro matches each rune of a, in order, to the first unmatched equal
// rune of b within the match window. Here that position is the lowest
// set bit of the rune's mask, the window and the complement of b's
// matched positions, a few word operations per rune of a instead of a
// scan of the window. Names over 64 runes take one word per 64 positions,
// and the match masks of a and b are allocated only when they need more
// than four words together. The k-th matched rune of a and the k-th
// matched position of b, walked together from the two match masks, are a
// transposition when the rune's mask lacks the position, and the Winkler
// prefix is the run of leading positions p whose rune's mask holds p.
func JaroWinklerMasks(a []int32, masks []uint64, lb int) float64 {
	la := len(a)
	if la == 0 || lb == 0 {
		if la == lb {
			return 1
		}
		return 0
	}
	w := MaskWords(lb)
	window := max(max(la, lb)/2-1, 0)
	// taken holds b's matched positions and hits a's.
	var buf [4]uint64
	words := buf[:]
	if n := w + MaskWords(la); n > len(buf) {
		words = make([]uint64, n)
	}
	taken, hits := words[:w], words[w:]
	matches := 0
	for i, c := range a {
		if i-window >= lb {
			break // every later window lies past b's end too
		}
		lo, hi := uint(max(i-window, 0)), uint(min(i+window, lb-1))
		eq := masks[int(c)*w : int(c)*w+w]
		k, last := lo/maskRunes, hi/maskRunes
		m := eq[k] &^ taken[k] & (^uint64(0) << (lo % maskRunes))
		for k < last && m == 0 {
			k++
			m = eq[k] &^ taken[k]
		}
		if k == last {
			m &= ^uint64(0) >> (maskRunes - 1 - hi%maskRunes)
		}
		// Without a branch: hit is 1 when m holds a match, 0 otherwise.
		hit := (m | -m) >> (maskRunes - 1)
		taken[k] |= m & -m
		hits[uint(i)/maskRunes] |= hit << (uint(i) % maskRunes)
		matches += int(hit)
	}
	if matches == 0 {
		return 0
	}
	trans := 0
	kb, tw := 0, taken[0]
	for ka, hw := range hits {
		for ; hw != 0; hw &= hw - 1 {
			c := a[ka*maskRunes+bits.TrailingZeros64(hw)]
			for tw == 0 {
				kb++
				tw = taken[kb]
			}
			if masks[int(c)*w+kb]>>bits.TrailingZeros64(tw)&1 == 0 {
				trans++
			}
			tw &= tw - 1
		}
	}
	l := 0
	for l < min(la, lb, 4) && masks[int(a[l])*w]>>l&1 != 0 {
		l++
	}
	m := float64(matches)
	j := (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
	const p = 0.1
	return j + float64(l)*p*(1-j)
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
