package harmony

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/obs"
)

// Golden digests pin the engine's and the E6 baselines' output bits to
// fixed values. The differential suites compare a rematch with a cold
// run of the same code, so a change that shifts both sides alike passes
// them; these digests catch it. A digest hashes math.Float64bits of
// every cell in row-major order over the full cross product (through
// At, so it is independent of how the matrix stores its cells).
// Parallelism 0 and 1 must produce the same digest, so the tables are
// keyed without it.

// matrixDigest returns a short hex SHA-256 over the matrix dimensions
// and the bits of every cell.
func matrixDigest(m *match.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(m.Sources))<<32|uint64(len(m.Targets)))
	h.Write(buf[:])
	for i := range m.Sources {
		for j := range m.Targets {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.At(i, j)))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenPairs are the two registry pairs the digests cover.
var goldenPairs = []struct {
	name                        string
	seed                        int64
	entities, attributes, codes int
}{
	{"pairA", 3, 14, 110, 140},
	{"pairB", 8, 30, 260, 320},
}

var goldenEngine = map[string]string{
	"pairA/unblocked/cold":        "7e631a9575d76d5c",
	"pairA/unblocked/pins":        "87f16492d76f6922",
	"pairA/unblocked/incremental": "75e359164bc30483",
	"pairA/blocked/cold":          "3dedc27cf3ec29c1",
	"pairA/blocked/pins":          "2cf0638d462330a7",
	"pairA/blocked/incremental":   "fc4296d6541808b0",
	"pairB/unblocked/cold":        "08ab976eab3d7d67",
	"pairB/unblocked/pins":        "567afc5e36180e38",
	"pairB/unblocked/incremental": "7789253438810873",
	"pairB/blocked/cold":          "ed5740f90ce273cc",
	"pairB/blocked/pins":          "cea068c902a46fd8",
	"pairB/blocked/incremental":   "fe71b397b782f970",
}

var goldenBaselines = map[string]string{
	"pairA/baseline-name-equality":       "dfffb9b5f00d1698",
	"pairA/baseline-edit-distance":       "124ca8c7ac65be9b",
	"pairA/baseline-coma":                "350b72eecf2efb4d",
	"pairA/baseline-cupid":               "b486d3de6866e82e",
	"pairA/baseline-similarity-flooding": "7b439fb799d31f58",
	"pairB/baseline-name-equality":       "b2d26a32dfdee09e",
	"pairB/baseline-edit-distance":       "e5c7dc508ebbc22c",
	"pairB/baseline-coma":                "a19b4f6def80a44b",
	"pairB/baseline-cupid":               "99e517a3fe7743b5",
	"pairB/baseline-similarity-flooding": "084073bd015be79e",
}

func checkGolden(t *testing.T, table map[string]string, key string, m *match.Matrix) {
	t.Helper()
	want, ok := table[key]
	if !ok {
		t.Fatalf("%s: no golden digest entry", key)
	}
	if got := matrixDigest(m); got != want {
		t.Errorf("%s: digest %s, golden %s", key, got, want)
	}
}

// TestGoldenEngineDigests runs each pair cold, then a pins rematch
// (one accept, one reject), then an incremental rematch after a source
// add and a target drop, at parallelism 0 and 1 with blocking off and
// on, and compares each published matrix with its golden digest.
func TestGoldenEngineDigests(t *testing.T) {
	for _, p := range goldenPairs {
		for _, blk := range []struct {
			name string
			opts match.BlockingOptions
		}{
			{"unblocked", match.BlockingOptions{}},
			{"blocked", match.BlockingOptions{Enabled: true, PerSourceK: 8}},
		} {
			for _, par := range []int{1, 0} {
				prefix := p.name + "/" + blk.name
				t.Run(fmt.Sprintf("%s/par%d", prefix, par), func(t *testing.T) {
					src, tgt := diffPair(p.seed, p.entities, p.attributes, p.codes)
					e := NewEngine(src, tgt, Options{
						Flooding:    true,
						Parallelism: par,
						Metrics:     obs.NewRegistry(),
						Blocking:    blk.opts,
					})
					e.Run()
					checkGolden(t, goldenEngine, prefix+"/cold", e.Matrix())

					srcEls, tgtEls := src.Elements(), tgt.Elements()
					if err := e.Accept(srcEls[2].ID, tgtEls[3].ID); err != nil {
						t.Fatal(err)
					}
					if err := e.Reject(srcEls[5].ID, tgtEls[1].ID); err != nil {
						t.Fatal(err)
					}
					e.Rematch(Dirty{})
					if mode := e.LastRematchMode(); mode != RematchPins {
						t.Fatalf("decision rematch mode = %s; want %s", mode, RematchPins)
					}
					checkGolden(t, goldenEngine, prefix+"/pins", e.Matrix())

					added := src.AddElement(srcEls[len(srcEls)/2], "goldenExtra", model.KindAttribute, model.ContainsAttribute)
					added.DataType = "string"
					added.Doc = "an attribute added to pin the incremental path"
					dropped := tgtEls[len(tgtEls)-1]
					tgt.RemoveElement(dropped.ID)
					e.Rematch(Dirty{Source: []string{added.ID}, Target: []string{dropped.ID}})
					if mode := e.LastRematchMode(); mode != RematchIncremental && mode != RematchCorpus {
						t.Fatalf("add+drop rematch mode = %s; want incremental or corpus", mode)
					}
					checkGolden(t, goldenEngine, prefix+"/incremental", e.Matrix())
				})
			}
		}
	}
}

// TestGoldenBaselineDigests hashes each E6 baseline's Vote matrix on
// both pairs at parallelism 0 and 1.
func TestGoldenBaselineDigests(t *testing.T) {
	baselines := []match.Voter{
		match.NameEqualityMatcher{},
		match.EditDistanceMatcher{},
		match.COMAMatcher{},
		match.CupidMatcher{},
		match.MelnikMatcher{},
	}
	for _, p := range goldenPairs {
		src, tgt := diffPair(p.seed, p.entities, p.attributes, p.codes)
		for _, par := range []int{1, 0} {
			ctx := match.NewContext(src, tgt, match.WithParallelism(par))
			for _, v := range baselines {
				checkGolden(t, goldenBaselines, p.name+"/"+v.Name(), v.Vote(ctx))
			}
		}
	}
}
