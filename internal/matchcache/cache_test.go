package matchcache

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/obs"
)

var bg = context.Background()

// keysOf lists the index's keys, sorted.
func keysOf(c *Cache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestGetHoldBasics(t *testing.T) {
	c := New(obs.NewRegistry())
	if _, ok := c.Get(bg, "a"); ok {
		t.Fatal("empty index returned a hit")
	}
	owner := new(int)
	c.Hold(owner, map[string]any{"a": 42})
	v, ok := c.Get(bg, "a")
	if !ok || v.(int) != 42 {
		t.Fatalf("Get(a) = %v, %v; want 42, true", v, ok)
	}
	// A re-hold keeps one entry and takes the value it is given.
	c.Hold(owner, map[string]any{"a": 43})
	if v, _ = c.Get(bg, "a"); v.(int) != 43 {
		t.Fatalf("after re-hold Get(a) = %v; want 43", v)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats after re-hold = %+v; want 1 entry, 2 hits, 1 miss, 0 evictions", st)
	}
	// Holding nothing releases everything.
	c.Hold(owner, nil)
	if _, ok := c.Get(bg, "a"); ok {
		t.Fatal("released entry readable")
	}
	if st := c.Stats(); st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("stats after release = %+v; want 0 entries, 1 eviction", st)
	}
	if len(c.held) != 0 {
		t.Fatalf("released owner still tracked: %v", c.held)
	}
}

// TestSharedKeySurvivesUntilLastHolder: a key two holders hold leaves
// the index only when the second of them moves on.
func TestSharedKeySurvivesUntilLastHolder(t *testing.T) {
	c := New(obs.NewRegistry())
	a, b := new(int), new(int)
	c.Hold(a, map[string]any{"x": 1, "shared": 2})
	c.Hold(b, map[string]any{"shared": 2, "z": 3})
	c.Hold(a, map[string]any{"w": 4})
	if got, want := fmt.Sprint(keysOf(c)), "[shared w z]"; got != want {
		t.Fatalf("after a moved on: keys %s; want %s", got, want)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("after a moved on: %d evictions; want 1 (x)", st.Evictions)
	}
	c.Hold(b, nil)
	if got, want := fmt.Sprint(keysOf(c)), "[w]"; got != want {
		t.Fatalf("after b released: keys %s; want %s", got, want)
	}
	if st := c.Stats(); st.Evictions != 3 {
		t.Fatalf("after b released: %d evictions; want 3", st.Evictions)
	}
}

// TestReholdUnchangedKeyNeverDrops: a holder whose new set repeats a
// key of its old one keeps that key throughout — a concurrent reader
// never misses it — and counts no eviction for it.
func TestReholdUnchangedKeyNeverDrops(t *testing.T) {
	c := New(obs.NewRegistry())
	owner := new(int)
	c.Hold(owner, map[string]any{"k": 0, "old": 0})
	done := make(chan struct{})
	missed := make(chan int, 1)
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			if _, ok := c.Get(bg, "k"); !ok {
				missed <- i
				return
			}
		}
	}()
	for i := 1; i <= 500; i++ {
		c.Hold(owner, map[string]any{"k": i, fmt.Sprint("new", i): i})
	}
	<-done
	select {
	case i := <-missed:
		t.Fatalf("re-held key missed at read %d", i)
	default:
	}
	// Every key the next set did not repeat left: "old" and new1..new499.
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 500 {
		t.Fatalf("stats = %+v; want 2 entries, 500 evictions", st)
	}
	if v, _ := c.Get(bg, "k"); v.(int) != 500 {
		t.Fatalf("re-held key value = %v; want the last hold's 500", v)
	}
}

func TestHitRatio(t *testing.T) {
	c := New(obs.NewRegistry())
	if r := c.Stats().HitRatio(); r != 0 {
		t.Fatalf("virgin hit ratio = %v; want 0", r)
	}
	c.Hold(new(int), map[string]any{"a": 1})
	c.Get(bg, "a")
	c.Get(bg, "a")
	c.Get(bg, "b")
	c.Get(bg, "b")
	if r := c.Stats().HitRatio(); r != 0.5 {
		t.Fatalf("hit ratio = %v; want 0.5", r)
	}
}

// ---- property tests (keying discipline, concurrent use) ----

// TestPropertyRevisionBumpInvalidation models the engines' keying
// discipline: keys embed a content revision, and each holder moves to
// a new revision with every run, sometimes onto one that another holder
// already holds. After every bump the index holds exactly the union of
// the holders' current keys, each under its own value, so no Get can
// observe a superseded revision once its last holder moved on.
func TestPropertyRevisionBumpInvalidation(t *testing.T) {
	voters := []string{"name", "doc", "type", "struct"}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(obs.NewRegistry())
		holders := make([]*int, 4)
		current := make([]int, len(holders)) // 0 = holds nothing
		for i := range holders {
			holders[i] = new(int)
		}
		var evictions int64
		for step := 0; step < 200; step++ {
			h := rng.Intn(len(holders))
			rev := 1 + rng.Intn(12)
			if rng.Intn(8) == 0 {
				rev = 0 // a learned engine: holds nothing
			}
			var entries map[string]any
			if rev > 0 {
				entries = map[string]any{}
				for _, v := range voters {
					entries[fmt.Sprintf("v|rev%d|%s", rev, v)] = fmt.Sprintf("%d-%s", rev, v)
				}
			}
			old := current[h]
			current[h] = rev
			if old != 0 && old != rev {
				stillHeld := false
				for _, r := range current {
					stillHeld = stillHeld || r == old
				}
				if !stillHeld {
					evictions += int64(len(voters))
				}
			}
			c.Hold(holders[h], entries)

			live := map[int]bool{}
			for _, r := range current {
				if r != 0 {
					live[r] = true
				}
			}
			for r := 0; r <= 12; r++ {
				for _, v := range voters {
					got, ok := c.Get(bg, fmt.Sprintf("v|rev%d|%s", r, v))
					if ok != live[r] {
						t.Fatalf("seed %d step %d: rev %d %s present=%v; want %v", seed, step, r, v, ok, live[r])
					}
					if ok && got.(string) != fmt.Sprintf("%d-%s", r, v) {
						t.Fatalf("seed %d step %d: rev %d %s = %v", seed, step, r, v, got)
					}
				}
			}
			if st := c.Stats(); st.Entries != len(live)*len(voters) || st.Evictions != evictions {
				t.Fatalf("seed %d step %d: stats %+v; want %d entries, %d evictions",
					seed, step, st, len(live)*len(voters), evictions)
			}
		}
	}
}

// TestPropertyConcurrentGetHold hammers the index from many goroutines,
// each one holder moving between random key sets while reading others'
// keys. Every hit must return a value stored under that key (values
// name their key, so cross-key mixups are detectable), and at the end
// the index must hold exactly the union of the holders' last sets. Run
// under -race this also proves memory safety.
func TestPropertyConcurrentGetHold(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(reg)
	const workers = 8
	last := make([]map[string]any, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			owner := new(int)
			for op := 0; op < 2000; op++ {
				k := fmt.Sprintf("k%d", rng.Intn(64))
				if rng.Intn(4) > 0 {
					if v, ok := c.Get(bg, k); ok && v.(string)[:len(k)+1] != k+"/" {
						t.Errorf("Get(%s) returned value for wrong key: %v", k, v)
						return
					}
					continue
				}
				entries := map[string]any{}
				for n := rng.Intn(6); n > 0; n-- {
					k := fmt.Sprintf("k%d", rng.Intn(64))
					entries[k] = fmt.Sprintf("%s/%d/%d", k, w, op)
				}
				c.Hold(owner, entries)
				last[w] = entries
			}
		}(w)
	}
	wg.Wait()
	union := map[string]bool{}
	for _, entries := range last {
		for k := range entries {
			union[k] = true
		}
	}
	st := c.Stats()
	if st.Entries != len(union) {
		t.Fatalf("final entries %d; want the %d keys of the holders' last sets", st.Entries, len(union))
	}
	for k := range union {
		if _, ok := c.Get(bg, k); !ok {
			t.Fatalf("held key %s missing", k)
		}
	}
	if g := reg.Gauge(MetricEntries).Value(); g != float64(st.Entries) {
		t.Fatalf("%s gauge = %v; want %d", MetricEntries, g, st.Entries)
	}
}

// TestMetricsExported: the registry's counters and entry gauge are the
// values Stats reports.
func TestMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(reg)
	a, b := new(int), new(int)
	c.Hold(a, map[string]any{"x": 1, "y": 2})
	c.Hold(b, map[string]any{"y": 2})
	c.Get(bg, "x")
	c.Get(bg, "missing")
	c.Hold(a, nil)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 eviction, 1 entry", st)
	}
	for name, want := range map[string]int64{MetricHits: st.Hits, MetricMisses: st.Misses, MetricEvictions: st.Evictions} {
		if v := reg.Counter(name).Value(); v != want {
			t.Errorf("%s = %d; want %d", name, v, want)
		}
	}
	if v := reg.Gauge(MetricEntries).Value(); v != float64(st.Entries) {
		t.Errorf("%s = %v; want %d", MetricEntries, v, st.Entries)
	}
}
