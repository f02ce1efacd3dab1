package lingo

import (
	"bufio"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"sort"
	"strings"
)

// Thesaurus maps words to synonym sets. The paper's thesaurus voter
// "expands the elements' names using a thesaurus" (§4); enterprise
// deployments load domain glossaries, and a built-in table covers the
// domains exercised by the examples and the synthetic registry.
type Thesaurus struct {
	// synsets maps each word to the set ids it belongs to.
	synsets map[string][]int
	// members maps set id to its (sorted) member words.
	members map[int][]string
	nextID  int
	// digest hashes every set's members, in set order, as sets are
	// added (see Digest).
	digest hash.Hash64
}

// NewThesaurus returns an empty thesaurus.
func NewThesaurus() *Thesaurus {
	return &Thesaurus{
		synsets: make(map[string][]int),
		members: make(map[int][]string),
		digest:  fnv.New64a(),
	}
}

// AddSynset records that the given words are mutually synonymous. Words
// are lowercased. Adding overlapping synsets is permitted; expansion
// unions all sets a word belongs to.
func (t *Thesaurus) AddSynset(words ...string) {
	if len(words) < 2 {
		return
	}
	id := t.nextID
	t.nextID++
	normalized := make([]string, 0, len(words))
	for _, w := range words {
		w = strings.ToLower(strings.TrimSpace(w))
		if w == "" {
			continue
		}
		normalized = append(normalized, w)
		t.synsets[w] = append(t.synsets[w], id)
	}
	sort.Strings(normalized)
	t.members[id] = normalized
	for _, w := range normalized {
		t.digest.Write([]byte(w))
		t.digest.Write([]byte{0})
	}
	t.digest.Write([]byte{1})
}

// Digest returns a content hash of the thesaurus: its members per
// synset, in set order. Two thesauri with the same synsets added in the
// same order digest equal; it costs nothing to read, being kept up to
// date by AddSynset.
func (t *Thesaurus) Digest() uint64 { return t.digest.Sum64() }

// Synonyms returns all synonyms of word (excluding word itself), sorted.
func (t *Thesaurus) Synonyms(word string) []string {
	word = strings.ToLower(word)
	seen := map[string]bool{}
	for _, id := range t.synsets[word] {
		for _, m := range t.members[id] {
			if m != word {
				seen[m] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// AreSynonyms reports whether a and b share a synset (or are equal).
func (t *Thesaurus) AreSynonyms(a, b string) bool {
	a, b = strings.ToLower(a), strings.ToLower(b)
	if a == b {
		return true
	}
	idsA := t.synsets[a]
	idsB := t.synsets[b]
	for _, ia := range idsA {
		for _, ib := range idsB {
			if ia == ib {
				return true
			}
		}
	}
	return false
}

// Expand returns tokens plus every synonym of each token, deduplicated,
// original tokens first.
func (t *Thesaurus) Expand(tokens []string) []string {
	seen := make(map[string]bool, len(tokens))
	out := make([]string, 0, len(tokens))
	for _, tok := range tokens {
		if !seen[tok] {
			seen[tok] = true
			out = append(out, tok)
		}
	}
	for _, tok := range tokens {
		for _, syn := range t.Synonyms(tok) {
			if !seen[syn] {
				seen[syn] = true
				out = append(out, syn)
			}
		}
	}
	return out
}

// Len returns the number of synsets.
func (t *Thesaurus) Len() int { return len(t.members) }

// Load reads synsets from r, one per line, comma-separated; '#' starts a
// comment. This is the on-disk glossary format used by cmd/harmony's
// -thesaurus flag.
func (t *Thesaurus) Load(r io.Reader) error {
	sc := bufio.NewScanner(r)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		words := make([]string, 0, len(parts))
		for _, p := range parts {
			if w := strings.TrimSpace(p); w != "" {
				words = append(words, w)
			}
		}
		if len(words) < 2 {
			return fmt.Errorf("lingo: thesaurus line %d: need at least two words, got %q", ln, line)
		}
		t.AddSynset(words...)
	}
	return sc.Err()
}

// DefaultThesaurus returns a thesaurus preloaded with synonym sets for the
// domains the paper discusses: commerce (purchase orders), aviation (air
// traffic flow management), HR/personnel, plus generic schema vocabulary
// and common abbreviations.
func DefaultThesaurus() *Thesaurus {
	t := NewThesaurus()
	for _, set := range [][]string{
		// Generic schema vocabulary.
		{"id", "identifier", "key", "code"},
		{"name", "title", "label"},
		{"description", "definition", "comment", "remark", "note"},
		{"type", "kind", "category", "class"},
		{"number", "num", "no", "count"},
		{"date", "day"},
		{"time", "timestamp"},
		{"amount", "quantity", "qty", "total", "sum"},
		{"price", "cost", "charge", "fee", "rate"},
		{"address", "addr", "location", "place"},
		{"state", "province", "region"},
		{"zip", "zipcode", "postcode", "postal"},
		{"phone", "telephone", "tel"},
		{"start", "begin", "commence"},
		{"end", "finish", "stop", "terminate"},
		// Commerce.
		{"order", "purchase", "po"},
		{"customer", "client", "buyer", "purchaser"},
		{"vendor", "supplier", "seller", "merchant"},
		{"item", "product", "article", "goods", "line"},
		{"ship", "shipping", "shipment", "delivery", "deliver"},
		{"bill", "billing", "invoice"},
		{"subtotal", "total"},
		{"first", "given"},
		{"last", "family", "surname"},
		// Aviation / air traffic flow management.
		{"aircraft", "plane", "airplane", "flight"},
		{"airport", "aerodrome", "airfield", "facility"},
		{"runway", "strip"},
		{"route", "path", "airway", "course"},
		{"weather", "meteorology", "metar"},
		{"departure", "takeoff", "origin"},
		{"arrival", "landing", "destination"},
		{"carrier", "airline", "operator"},
		{"altitude", "elevation", "height", "level"},
		{"speed", "velocity"},
		{"latitude", "lat"},
		{"longitude", "lon", "long"},
		// HR / personnel.
		{"employee", "staff", "worker", "personnel"},
		{"salary", "pay", "wage", "compensation"},
		{"department", "dept", "division", "unit", "organization", "org"},
		{"manager", "supervisor", "boss"},
		{"person", "individual", "people"},
		{"birth", "born", "dob"},
		{"student", "pupil"},
		{"professor", "instructor", "teacher", "faculty"},
		{"course", "class"},
		{"grade", "mark", "score"},
	} {
		t.AddSynset(set...)
	}
	return t
}
