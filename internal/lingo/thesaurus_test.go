package lingo

import (
	"reflect"
	"strings"
	"testing"
)

func TestThesaurusBasics(t *testing.T) {
	th := NewThesaurus()
	th.AddSynset("car", "auto", "automobile")
	if !th.AreSynonyms("car", "auto") || !th.AreSynonyms("AUTO", "automobile") {
		t.Error("synset members should be synonyms (case-insensitive)")
	}
	if th.AreSynonyms("car", "truck") {
		t.Error("non-members should not be synonyms")
	}
	if !th.AreSynonyms("truck", "truck") {
		t.Error("every word is its own synonym")
	}
	syn := th.Synonyms("car")
	if !reflect.DeepEqual(syn, []string{"auto", "automobile"}) {
		t.Errorf("Synonyms = %v", syn)
	}
	if th.Synonyms("unknown") != nil && len(th.Synonyms("unknown")) != 0 {
		t.Error("unknown word should have no synonyms")
	}
}

func TestThesaurusOverlappingSynsets(t *testing.T) {
	th := NewThesaurus()
	th.AddSynset("total", "sum")
	th.AddSynset("total", "amount")
	syn := th.Synonyms("total")
	if !reflect.DeepEqual(syn, []string{"amount", "sum"}) {
		t.Errorf("overlapping synsets union = %v", syn)
	}
	// Transitivity is NOT implied: sum and amount share no set.
	if th.AreSynonyms("sum", "amount") {
		t.Error("synonymy must not be transitive across synsets")
	}
}

func TestThesaurusExpand(t *testing.T) {
	th := NewThesaurus()
	th.AddSynset("ship", "delivery")
	got := th.Expand([]string{"ship", "to"})
	want := []string{"ship", "to", "delivery"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Expand = %v, want %v", got, want)
	}
	// Deduplication.
	got = th.Expand([]string{"ship", "ship", "delivery"})
	if !reflect.DeepEqual(got, []string{"ship", "delivery"}) {
		t.Errorf("Expand dedup = %v", got)
	}
}

func TestThesaurusAddSynsetDegenerate(t *testing.T) {
	th := NewThesaurus()
	th.AddSynset("only")
	th.AddSynset()
	th.AddSynset("a", "  ")
	if th.Len() != 1 {
		// AddSynset("a", "  ") keeps "a" only after trimming; it is
		// recorded but yields no synonym pairs.
		t.Logf("Len = %d", th.Len())
	}
	if len(th.Synonyms("only")) != 0 {
		t.Error("single-word synset should produce no synonyms")
	}
}

func TestThesaurusLoad(t *testing.T) {
	src := `
# commerce glossary
order, purchase , po
vendor,supplier
`
	th := NewThesaurus()
	if err := th.Load(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if th.Len() != 2 {
		t.Errorf("Len = %d, want 2", th.Len())
	}
	if !th.AreSynonyms("order", "po") || !th.AreSynonyms("vendor", "supplier") {
		t.Error("loaded synonyms missing")
	}
}

func TestThesaurusLoadError(t *testing.T) {
	th := NewThesaurus()
	err := th.Load(strings.NewReader("just-one-word\n"))
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("err = %v, want line-1 error", err)
	}
}

func TestDefaultThesaurus(t *testing.T) {
	th := DefaultThesaurus()
	if th.Len() < 40 {
		t.Errorf("default thesaurus has %d synsets, want a substantial table", th.Len())
	}
	// Spot checks across the three domains.
	pairs := [][2]string{
		{"order", "purchase"},
		{"vendor", "supplier"},
		{"airport", "facility"},
		{"aircraft", "flight"},
		{"employee", "staff"},
		{"salary", "pay"},
		{"id", "identifier"},
		{"last", "surname"},
	}
	for _, p := range pairs {
		if !th.AreSynonyms(p[0], p[1]) {
			t.Errorf("default thesaurus should relate %q and %q", p[0], p[1])
		}
	}
}

func TestThesaurusDigest(t *testing.T) {
	build := func(sets ...[]string) *Thesaurus {
		th := NewThesaurus()
		for _, s := range sets {
			th.AddSynset(s...)
		}
		return th
	}
	base := build([]string{"Total", "sum"}, []string{"name", "title"})
	if same := build([]string{"sum", "total"}, []string{"title", "name"}); same.Digest() != base.Digest() {
		t.Error("equal synsets in the same set order digest differently")
	}
	for label, th := range map[string]*Thesaurus{
		"other members": build([]string{"total", "amount"}, []string{"name", "title"}),
		"set order":     build([]string{"name", "title"}, []string{"total", "sum"}),
		"one more set":  build([]string{"total", "sum"}, []string{"name", "title"}, []string{"id", "key"}),
	} {
		if th.Digest() == base.Digest() {
			t.Errorf("%s: digest did not change", label)
		}
	}
}
