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
// cache and asserts the cache's hits, misses and entries after each
// step. A run with nothing to reuse reads every stage from the cache
// before computing it; a rematch patches its previous matrices and only
// writes; a run after Learn bypasses the cache entirely.
func TestCacheTrafficGolden(t *testing.T) {
	cache := matchcache.New(1 << 24)
	cache.SetMetrics(obs.NewRegistry())
	opts := Options{Flooding: true, Metrics: obs.NewRegistry(), Cache: cache}
	src, tgt := poSource(), siTarget()
	live := NewEngine(src, tgt, opts)

	steps := []struct {
		name                  string
		call                  func()
		hits, misses, entries int64
	}{
		// Six voter matrices and the merged entry: each looked up, missed
		// and stored.
		{"cold run", func() { live.Run() }, 0, 7, 7},
		// A second engine over the same pair hits all seven.
		{"cache hit", func() { NewEngine(src, tgt, opts).Run() }, 7, 7, 7},
		// Re-pinning reads and writes nothing.
		{"pins", func() {
			if err := live.Accept(firstID, nameID); err != nil {
				t.Fatal(err)
			}
			live.Rematch(Dirty{})
		}, 7, 7, 7},
		// Patched matrices are stored under the edited schema's hash,
		// without a lookup.
		{"rename", func() {
			src.Element(lastID).Name = "surname"
			live.Rematch(Dirty{})
		}, 7, 7, 14},
		{"doc edit", func() {
			src.Element(subtotalID).Doc += " excluding shipping charges"
			live.Rematch(Dirty{})
		}, 7, 7, 21},
		// Learned state is not part of the key.
		{"learn", func() {
			live.Learn()
			live.Rematch(Dirty{})
		}, 7, 7, 21},
		// Blocking changes the fingerprint: the pattern joins the seven
		// matrices, all missed and stored.
		{"blocking", func() {
			o := opts
			o.Blocking = match.BlockingOptions{Enabled: true, PerSourceK: 2}
			NewEngine(poSource(), siTarget(), o).Run()
		}, 7, 15, 29},
	}
	for _, st := range steps {
		st.call()
		got := cache.Stats()
		if got.Hits != st.hits || got.Misses != st.misses || int64(got.Entries) != st.entries || got.Evictions != 0 {
			t.Errorf("%s: hits %d misses %d entries %d evictions %d, want %d %d %d 0",
				st.name, got.Hits, got.Misses, got.Entries, got.Evictions, st.hits, st.misses, st.entries)
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

	cache := matchcache.New(1 << 24)
	cache.SetMetrics(obs.NewRegistry())
	engine(first, cache).Run()
	assertBitIdentical(t, "second thesaurus through a shared cache", want, engine(second, cache).Matrix())
}
