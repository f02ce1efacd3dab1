package harmony

import (
	"math"
	"testing"

	"repro/internal/match"
	"repro/internal/matchcache"
	"repro/internal/model"
	"repro/internal/obs"
)

// blockingCases runs each pin test over every pair (the unblocked
// matrix) and over a blocking pattern, where a pin outside the pattern
// is an overflow cell.
var blockingCases = []struct {
	name     string
	blocking match.BlockingOptions
}{
	{"unblocked", match.BlockingOptions{}},
	{"blocked", match.BlockingOptions{Enabled: true, PerSourceK: 4}},
}

// storedPair returns the pair of row i's last stored cell.
func storedPair(m *match.Matrix, i int) [2]string {
	var p [2]string
	m.Walker().Row(i, func(i, j int, _ float64) { p = [2]string{m.Sources[i].ID, m.Targets[j].ID} })
	return p
}

// prunedPair returns a pair the matrix does not store, or ok false when
// it stores every pair.
func prunedPair(m *match.Matrix) (src, tgt string, ok bool) {
	stored := make(map[[2]int]bool, m.NNZ())
	m.Each(func(i, j int, _ float64) { stored[[2]int{i, j}] = true })
	for i, s := range m.Sources {
		for j, t := range m.Targets {
			if !stored[[2]int{i, j}] {
				return s.ID, t.ID, true
			}
		}
	}
	return "", "", false
}

// TestPinsRematchKeepsLiveMatrix decides, undecides and re-decides pairs
// on a run engine and rematches: the rematch resolves to pins, runs no
// pipeline, and leaves Matrix() the very same object, bit-identical to
// a cold engine holding the same decisions.
func TestPinsRematchKeepsLiveMatrix(t *testing.T) {
	for _, tc := range blockingCases {
		t.Run(tc.name, func(t *testing.T) {
			src, tgt := diffPair(11, 6, 40, 60)
			reg := obs.NewRegistry()
			opts := Options{Flooding: true, Metrics: reg, Blocking: tc.blocking}
			e := NewEngine(src, tgt, opts)
			live := e.Matrix()
			els, tels := src.Elements(), tgt.Elements()
			for k := 0; k < 8; k++ {
				s, t2 := els[(7*k)%len(els)].ID, tels[(5*k)%len(tels)].ID
				if err := e.decide(s, t2, k%3 != 0); err != nil {
					t.Fatal(err)
				}
				if k%4 == 1 {
					e.Unpin(s, t2)
				}
			}
			if ps, pt, ok := prunedPair(live); ok {
				if err := e.Accept(ps, pt); err != nil {
					t.Fatal(err)
				}
			}
			e.Rematch(Dirty{})
			if mode := e.LastRematchMode(); mode != RematchPins {
				t.Fatalf("rematch mode %s, want %s", mode, RematchPins)
			}
			if e.Matrix() != live {
				t.Fatal("a pins rematch replaced the live matrix")
			}
			if runs, _ := reg.Find(MetricRuns); len(runs.Series) != 1 || runs.Series[0].Value != 1 {
				t.Errorf("%s = %+v after one run and a pins rematch, want 1", MetricRuns, runs)
			}
			cold := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry(), Blocking: tc.blocking})
			replayDecisions(e, cold)
			assertBitIdentical(t, "pins rematch vs cold", cold.Matrix(), e.Matrix())
		})
	}
}

// TestUnpinRestoresColdScoreAtOnce accepts and rejects pairs, then
// unpins them with no run in between: each pair reads its cold score
// again at once, bit for bit. On a blocked matrix a pin outside the
// pattern goes away with its unpin, and NNZ returns to its pre-pin
// count.
func TestUnpinRestoresColdScoreAtOnce(t *testing.T) {
	for _, tc := range blockingCases {
		t.Run(tc.name, func(t *testing.T) {
			src, tgt := diffPair(13, 6, 40, 60)
			opts := Options{Flooding: true, Metrics: obs.NewRegistry(), Blocking: tc.blocking}
			cold := NewEngine(src, tgt, opts).Matrix()
			e := NewEngine(src, tgt, opts)
			m := e.Matrix()
			nnz := m.NNZ()
			pairs := [][2]string{storedPair(m, 1), storedPair(m, 3)}
			ps, pt, pruned := prunedPair(m)
			if pruned {
				pairs = append(pairs, [2]string{ps, pt})
			} else if tc.blocking.Enabled {
				t.Fatal("the blocked fixture stores every pair; it needs a pruned one")
			}
			for k, p := range pairs {
				if err := e.decide(p[0], p[1], k%2 == 0); err != nil {
					t.Fatal(err)
				}
			}
			if pruned && m.NNZ() != nnz+1 {
				t.Fatalf("NNZ %d after pinning a pruned pair, want %d", m.NNZ(), nnz+1)
			}
			for _, p := range pairs {
				e.Unpin(p[0], p[1])
				if got, want := m.Get(p[0], p[1]), cold.Get(p[0], p[1]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s / %s reads %v after Unpin, want its cold score %v", p[0], p[1], got, want)
				}
			}
			if m.NNZ() != nnz {
				t.Fatalf("NNZ %d after unpinning every pair, want %d", m.NNZ(), nnz)
			}
			if e.Matrix() != m {
				t.Fatal("Unpin replaced the live matrix")
			}
			assertBitIdentical(t, "after Unpin", cold, m)
		})
	}
}

// TestSharedIndexEntryUntouchedByDecisions builds two engines over one
// pair and one cache index, as two mappings of the same schema pair do:
// the second engine's run is served every matrix the first one holds.
// Accept, Reject, Unpin, MarkSubtreeComplete and a pins rematch on the
// first engine must leave the second engine's matrix and every matrix
// the index holds bit-identical.
func TestSharedIndexEntryUntouchedByDecisions(t *testing.T) {
	for _, tc := range blockingCases {
		t.Run(tc.name, func(t *testing.T) {
			src, tgt := diffPair(17, 6, 40, 60)
			cache := matchcache.New(obs.NewRegistry())
			opts := Options{Flooding: true, Metrics: obs.NewRegistry(), Cache: cache, Blocking: tc.blocking}
			a := NewEngine(src, tgt, opts)
			a.Run()
			b := NewEngine(src, tgt, opts)
			b.Run()
			if b.snap.prepin != a.snap.prepin || b.snap.flood != a.snap.flood {
				t.Fatal("the second engine was not served the first one's merged entry")
			}
			held := []*match.Matrix{a.snap.premerge, a.snap.prepin}
			held = append(held, a.snap.flood.Rounds...)
			for _, v := range a.snap.votes {
				held = append(held, v.Matrix)
			}
			want := make([]*match.Matrix, len(held))
			for i, m := range held {
				want[i] = m.Clone()
			}
			other := b.Matrix().Clone()

			m := a.Matrix()
			pairs := [][2]string{storedPair(m, 0), storedPair(m, 2)}
			if ps, pt, ok := prunedPair(m); ok {
				pairs = append(pairs, [2]string{ps, pt})
			}
			for k, p := range pairs {
				if err := a.decide(p[0], p[1], k%2 == 0); err != nil {
					t.Fatal(err)
				}
			}
			a.Unpin(pairs[0][0], pairs[0][1])
			var root *model.Element
			for _, el := range src.Elements() {
				if len(el.Children()) > 0 {
					root = el
					break
				}
			}
			a.MarkSubtreeComplete(root, 0.3)
			a.Unpin(pairs[1][0], pairs[1][1])
			a.Rematch(Dirty{})
			if a.LastRematchMode() != RematchPins {
				t.Fatalf("rematch mode %s, want %s", a.LastRematchMode(), RematchPins)
			}

			for i, m := range held {
				assertBitIdentical(t, "index matrix", want[i], m)
				if m.NNZ() != want[i].NNZ() {
					t.Fatalf("index matrix %d: NNZ %d, want %d", i, m.NNZ(), want[i].NNZ())
				}
			}
			assertBitIdentical(t, "second engine", other, b.Matrix())
			if b.Matrix().NNZ() != other.NNZ() {
				t.Fatalf("second engine: NNZ %d, want %d", b.Matrix().NNZ(), other.NNZ())
			}
		})
	}
}
