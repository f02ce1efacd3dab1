package harmony

import (
	"math"
	"testing"

	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/registry"
)

// opaqueVoter hides a voter's VotePatch, so the panel counts as
// non-incremental.
type opaqueVoter struct{ match.Voter }

// TestRematchFallbackRebuildsContext edits an element in place and
// rematches down the two full-run paths: a panel without VotePatch
// after one Run, and a never-run engine. The linguistic context caches
// tokens per element, so both must score the edit from a rebuilt
// context, bit-identical to a fresh engine's Run.
func TestRematchFallbackRebuildsContext(t *testing.T) {
	cases := []struct {
		name   string
		voters []match.Voter
		runs   bool
		mode   string
	}{
		{"non-incremental panel", []match.Voter{opaqueVoter{match.NameVoter{}}, match.DocVoter{}}, true, RematchFull},
		{"never run", nil, false, RematchCold},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := registry.DefaultConfig()
			cfg.Seed = 5
			cfg.Models = 1
			cfg.ElementsTotal = 4
			cfg.AttributesTotal = 14
			cfg.DomainValuesTotal = 20
			src := registry.Generate(cfg).Models[0]
			tgt, _ := registry.Perturb(src, registry.DefaultPerturb())
			opts := Options{Voters: tc.voters, Flooding: true, Metrics: obs.NewRegistry()}

			e := NewEngine(src, tgt, opts)
			if tc.runs {
				e.Run()
			}
			el := src.Elements()[3]
			el.Name += "Renamed"
			el.Doc += " shipment carrier tracking reference"
			e.Rematch(Dirty{})
			if mode := e.LastRematchMode(); mode != tc.mode {
				t.Fatalf("rematch mode = %s, want %s", mode, tc.mode)
			}

			fresh := NewEngine(src, tgt, opts)
			fresh.Run()
			want, got := fresh.Matrix(), e.Matrix()
			diff := 0
			for i := range want.Sources {
				for j := range want.Targets {
					if math.Float64bits(want.At(i, j)) != math.Float64bits(got.At(i, j)) {
						diff++
					}
				}
			}
			if diff > 0 {
				t.Errorf("%d cells differ from a fresh run", diff)
			}
		})
	}
}
