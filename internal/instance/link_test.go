package instance

import (
	"math"
	"strings"
	"testing"
)

func TestLinkExactDuplicates(t *testing.T) {
	recs := []*Record{
		NewRecord("person").Set("name", "John Smith").Set("city", "Reston"),
		NewRecord("person").Set("name", "John Smith").Set("city", "Reston"),
		NewRecord("person").Set("name", "Alice Jones").Set("city", "McLean"),
	}
	res := Link(recs, LinkOptions{})
	if len(res.Merged) != 2 {
		t.Fatalf("merged to %d records, want 2", len(res.Merged))
	}
	if len(res.Groups[0]) != 2 || res.Groups[0][0] != 0 || res.Groups[0][1] != 1 {
		t.Errorf("groups: %v", res.Groups)
	}
}

func TestLinkFuzzyNames(t *testing.T) {
	recs := []*Record{
		NewRecord("person").Set("name", "Jonathan Smith"),
		NewRecord("person").Set("name", "Jonathon Smith"), // typo variant
		NewRecord("person").Set("name", "Zebulon Pike"),
	}
	res := Link(recs, LinkOptions{MatchFields: []string{"name"}, Threshold: 0.9})
	if len(res.Merged) != 2 {
		t.Fatalf("merged to %d, want 2 (fuzzy pair linked): %v", len(res.Merged), res.Groups)
	}
}

func TestLinkDifferentTypesNeverMerge(t *testing.T) {
	recs := []*Record{
		NewRecord("person").Set("name", "X"),
		NewRecord("company").Set("name", "X"),
	}
	res := Link(recs, LinkOptions{})
	if len(res.Merged) != 2 {
		t.Error("records of different types must not link")
	}
}

func TestLinkTransitive(t *testing.T) {
	// A≈B and B≈C should group all three even if A vs C is below threshold.
	recs := []*Record{
		NewRecord("p").Set("name", "catherine johnson"),
		NewRecord("p").Set("name", "catharine johnson"),
		NewRecord("p").Set("name", "catharine jonson"),
	}
	res := Link(recs, LinkOptions{MatchFields: []string{"name"}, Threshold: 0.95})
	if len(res.Merged) != 1 {
		t.Fatalf("transitive closure failed: %v", res.Groups)
	}
}

func TestMergePrefersNonEmptyAndPriority(t *testing.T) {
	recs := []*Record{
		NewRecord("p").Set("name", "John Smith").Set("phone", nil).Set("source", "web"),
		NewRecord("p").Set("name", "John Smith").Set("phone", "555-1234").Set("source", "registry"),
	}
	res := Link(recs, LinkOptions{
		MatchFields:    []string{"name"},
		SourcePriority: []string{"registry", "web"},
	})
	if len(res.Merged) != 1 {
		t.Fatalf("should merge: %v", res.Groups)
	}
	m := res.Merged[0]
	if m.GetString("phone") != "555-1234" {
		t.Errorf("phone = %q, want value from higher-priority source", m.GetString("phone"))
	}
	if m.GetString("source") != "registry" {
		t.Errorf("source = %q, want registry first", m.GetString("source"))
	}
}

func TestLinkMissingFieldNeutral(t *testing.T) {
	// A record missing the match field entirely shouldn't auto-link.
	recs := []*Record{
		NewRecord("p").Set("name", "Ann"),
		NewRecord("p"),
	}
	res := Link(recs, LinkOptions{MatchFields: []string{"name"}, Threshold: 0.85})
	if len(res.Merged) != 2 {
		t.Error("missing field should be neutral (0.5), below threshold")
	}
}

func TestLinkNoSharedFields(t *testing.T) {
	recs := []*Record{
		NewRecord("p").Set("a", "x"),
		NewRecord("p").Set("b", "x"),
	}
	res := Link(recs, LinkOptions{})
	if len(res.Merged) != 2 {
		t.Error("records with no shared fields should not link")
	}
}

func TestCleanReportsAndDrops(t *testing.T) {
	s := orderSchema()
	ds := &Dataset{Records: []*Record{
		NewRecord("orders").Set("id", "1").Set("customer", "a").Set("status", "bogus"),
		NewRecord("orders").Set("id", "2").Set("customer", "b").Set("status", "open"),
	}}
	// Report only.
	v := Clean(s, ds, CleanOptions{})
	if len(v) != 1 || v[0].Rule != "domain" {
		t.Fatalf("violations: %v", v)
	}
	if ds.Records[0].Get("status") != "bogus" {
		t.Error("report-only clean must not mutate")
	}
	// Drop.
	Clean(s, ds, CleanOptions{DropViolations: true})
	if ds.Records[0].Get("status") != nil {
		t.Error("drop should nil the offending value")
	}
	// Now valid.
	if v := Validate(s, ds); len(v) != 0 {
		t.Errorf("after clean: %v", v)
	}
}

func TestCleanNonDomainViolationsNotDropped(t *testing.T) {
	s := orderSchema()
	ds := &Dataset{Records: []*Record{
		NewRecord("orders").Set("id", "1"), // missing required customer
	}}
	v := Clean(s, ds, CleanOptions{DropViolations: true})
	if len(v) != 1 || v[0].Rule != "required" {
		t.Fatalf("violations: %v", v)
	}
	// Required violation cannot be fixed by dropping; still reported.
	if len(Validate(s, ds)) != 1 {
		t.Error("required violation should persist")
	}
}

func TestLinkBlocking(t *testing.T) {
	recs := []*Record{
		NewRecord("p").Set("name", "john smith"),
		NewRecord("p").Set("name", "John Smith"), // same block 'j'
		NewRecord("p").Set("name", "alice jones"),
	}
	res := Link(recs, LinkOptions{MatchFields: []string{"name"}, BlockOn: "name"})
	if len(res.Merged) != 2 {
		t.Fatalf("blocked link merged to %d, want 2: %v", len(res.Merged), res.Groups)
	}
	// Blocking is an approximation: cross-block duplicates are missed by
	// construction (that is the documented trade-off).
	recs2 := []*Record{
		NewRecord("p").Set("name", "smith, john"),
		NewRecord("p").Set("name", "jsmith, john"), // still similar, block 'j' vs 's'
	}
	res2 := Link(recs2, LinkOptions{MatchFields: []string{"name"}, Threshold: 0.7, BlockOn: "name"})
	if len(res2.Merged) != 2 {
		t.Error("cross-block pair should be missed under blocking")
	}
}

func TestLinkBlockingEmptyValuesBucket(t *testing.T) {
	recs := []*Record{
		NewRecord("p").Set("name", "x").Set("city", nil),
		NewRecord("p").Set("name", "x").Set("city", nil),
	}
	res := Link(recs, LinkOptions{MatchFields: []string{"name"}, BlockOn: "city"})
	if len(res.Merged) != 1 {
		t.Error("records with empty blocking field should still compare")
	}
}

func BenchmarkLinkPairwise(b *testing.B) {
	recs := linkBenchRecords(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Link(recs, LinkOptions{MatchFields: []string{"name"}})
	}
}

func BenchmarkLinkBlocked(b *testing.B) {
	recs := linkBenchRecords(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Link(recs, LinkOptions{MatchFields: []string{"name"}, BlockOn: "name"})
	}
}

func linkBenchRecords(n int) []*Record {
	out := make([]*Record, n)
	for i := 0; i < n; i++ {
		out[i] = NewRecord("p").Set("name",
			string(rune('a'+i%26))+"-person-"+FormatValue(i))
	}
	return out
}

// longRecordPairs are record pairs whose string fields run past one
// 64-rune mask word: addresses and descriptions of 65 to 200 runes,
// accented and CJK text, a long value against a short one, and a rune
// repeated across a word boundary.
func longRecordPairs() [][2]*Record {
	addr := "1600 Pennsylvania Avenue Northwest, Washington, District of Columbia 20500"
	desc := strings.Repeat("scheduled departure facility identifier code; ", 4)
	accented := "Société Générale des Chemins de Fer Économiques, 12 rue de l'Hôpital, Besançon"
	cjk := strings.Repeat("国際航空運送協会の出発施設識別コード", 4)
	return [][2]*Record{
		{
			NewRecord("site").Set("address", addr).Set("city", "Washington"),
			NewRecord("site").Set("address", strings.Replace(addr, "Northwest", "NW", 1)).Set("city", "washington"),
		},
		{
			NewRecord("site").Set("address", addr).Set("note", desc),
			NewRecord("site").Set("address", strings.ToUpper(addr[:40])+addr[40:]).Set("note", strings.Replace(desc, "facility", "facilty", 3)),
		},
		{
			NewRecord("org").Set("name", accented).Set("note", cjk),
			NewRecord("org").Set("name", strings.Replace(accented, "Économiques", "Economiques", 1)).Set("note", cjk[:len(cjk)-9]),
		},
		{
			NewRecord("org").Set("name", desc+desc),
			NewRecord("org").Set("name", "scheduled departure"),
		},
		{
			NewRecord("org").Set("name", "departure"),
			NewRecord("org").Set("name", accented+" "+addr),
		},
		{
			NewRecord("run").Set("a", strings.Repeat("a", 64)).Set("b", strings.Repeat("ab", 33)),
			NewRecord("run").Set("a", strings.Repeat("a", 65)).Set("b", strings.Repeat("ba", 33)+"a"),
		},
		{
			NewRecord("run").Set("a", strings.Repeat("x", 63)+strings.Repeat("y", 70)),
			NewRecord("run").Set("a", strings.Repeat("y", 70)+strings.Repeat("x", 63)),
		},
	}
}

// TestRecordSimilarityLongValuesPinned pins the linkage score of record
// pairs with string fields over 64 runes, both ways round, bit for bit,
// at the values the scalar Jaro-Winkler loop gave before the mask kernel
// replaced it.
func TestRecordSimilarityLongValuesPinned(t *testing.T) {
	want := [][2]uint64{
		{0x3fef0754fd363724, 0x3fef0754fd363724}, // 0.9696450181524807
		{0x3feeacc61c0447ae, 0x3feeacc61c0447ae}, // 0.9585905596925295
		{0x3fef0eae0225f3d4, 0x3fef0eae0225f3d4}, // 0.9705419580419581
		{0x3fe9ee30f9525d7e, 0x3fe9ee30f9525d7e}, // 0.8103260869565216
		{0x3fe0a0a0a0a0a0a1, 0x3fe0a0a0a0a0a0a1}, // 0.5196078431372549
		{0x3fed345a264d91ef, 0x3fed345a264d91ef}, // 0.9126406429391504
		{0x3fea5d5a77569dd5, 0x3fea5d5a77569dd5}, // 0.8238956766917293
	}
	for k, p := range longRecordPairs() {
		got := [2]float64{recordSimilarity(p[0], p[1], nil), recordSimilarity(p[1], p[0], nil)}
		if k >= len(want) {
			t.Errorf("pair %d has no pinned score", k)
			continue
		}
		for d, g := range got {
			if math.Float64bits(g) != want[k][d] {
				t.Errorf("pair %d, direction %d: recordSimilarity = %v (0x%016x), pinned 0x%016x", k, d, g, math.Float64bits(g), want[k][d])
			}
		}
	}
}
