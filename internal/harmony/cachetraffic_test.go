package harmony

import (
	"math"
	"testing"

	"repro/internal/lingo"
	"repro/internal/match"
	"repro/internal/matchcache"
	"repro/internal/obs"
)

// TestCacheTrafficGolden pins the matchcache traffic of every run and
// rematch mode: it replays TestStageSequenceGolden's script against one
// cache index and asserts the index's hits, misses, entries and
// evictions after each step. A run with nothing to reuse reads every
// stage from the index before computing it; a rematch patches its
// previous matrices without a lookup; after every run the engine holds
// its snapshot's entries in place of its previous ones, and an engine
// that has learned holds nothing.
func TestCacheTrafficGolden(t *testing.T) {
	cache := matchcache.New(obs.NewRegistry())
	opts := Options{Flooding: true, Metrics: obs.NewRegistry(), Cache: cache}
	src, tgt := poSource(), siTarget()
	live := NewEngine(src, tgt, opts)

	steps := []struct {
		name                             string
		call                             func()
		hits, misses, entries, evictions int64
	}{
		// Six voter matrices and the merged entry: each looked up, missed
		// and held.
		{"cold run", func() { live.Run() }, 0, 7, 7, 0},
		// A second engine over the same pair hits all seven and holds
		// them too.
		{"cache hit", func() { NewEngine(src, tgt, opts).Run() }, 7, 7, 7, 0},
		// Re-pinning reads and holds nothing new.
		{"pins", func() {
			if err := live.Accept(firstID, nameID); err != nil {
				t.Fatal(err)
			}
			live.Rematch(Dirty{})
		}, 7, 7, 7, 0},
		// Patched matrices are held under the edited schema's hash,
		// without a lookup; the second engine still holds the first
		// version.
		{"rename", func() {
			src.Element(lastID).Name = "surname"
			live.Rematch(Dirty{})
		}, 7, 7, 14, 0},
		// The renamed version's last holder moves on.
		{"doc edit", func() {
			src.Element(subtotalID).Doc += " excluding shipping charges"
			live.Rematch(Dirty{})
		}, 7, 7, 14, 7},
		// Learned state is not part of the key: the learned engine's run
		// releases what it held and holds nothing.
		{"learn", func() {
			live.Learn()
			live.Rematch(Dirty{})
		}, 7, 7, 7, 14},
		// Blocking changes the fingerprint: the pattern joins the seven
		// matrices, all missed and held.
		{"blocking", func() {
			o := opts
			o.Blocking = match.BlockingOptions{Enabled: true, PerSourceK: 2}
			NewEngine(poSource(), siTarget(), o).Run()
		}, 7, 15, 15, 14},
	}
	for _, st := range steps {
		st.call()
		got := cache.Stats()
		if got.Hits != st.hits || got.Misses != st.misses || int64(got.Entries) != st.entries || got.Evictions != st.evictions {
			t.Errorf("%s: hits %d misses %d entries %d evictions %d, want %d %d %d %d",
				st.name, got.Hits, got.Misses, got.Entries, got.Evictions, st.hits, st.misses, st.entries, st.evictions)
		}
	}
}

// TestCacheFingerprintSeesThesaurusContent shares one cache between two
// engines over the same pair whose thesauri hold equally many synsets
// with different members. The second engine must not be served the
// first one's thesaurus votes: its matrix equals an uncached engine's.
func TestCacheFingerprintSeesThesaurusContent(t *testing.T) {
	thesaurus := func(words ...string) *lingo.Thesaurus {
		th := lingo.NewThesaurus()
		th.AddSynset(words...)
		return th
	}
	engine := func(th *lingo.Thesaurus, cache *matchcache.Cache) *Engine {
		return NewEngine(poSource(), siTarget(), Options{
			Flooding: true, Metrics: obs.NewRegistry(), Cache: cache,
			ContextOptions: []match.ContextOption{match.WithThesaurus(th)},
		})
	}
	first, second := thesaurus("first", "given"), thesaurus("subtotal", "total")
	if first.Len() != second.Len() {
		t.Fatalf("synset counts %d and %d must be equal", first.Len(), second.Len())
	}
	want := engine(second, nil).Matrix()
	other := engine(first, nil).Matrix()
	differ := false
	for i := range want.Sources {
		for j := range want.Targets {
			differ = differ || math.Float64bits(want.At(i, j)) != math.Float64bits(other.At(i, j))
		}
	}
	if !differ {
		t.Fatal("the two thesauri score the pair identically; the test cannot tell them apart")
	}

	cache := matchcache.New(obs.NewRegistry())
	engine(first, cache).Run()
	assertBitIdentical(t, "second thesaurus through a shared cache", want, engine(second, cache).Matrix())
}
