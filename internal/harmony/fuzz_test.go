package harmony

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/matchcache"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/registry"
)

// FuzzRematchEquivalence interprets the fuzz input as an edit script
// over a small schema pair: each byte picks an operation and its
// operand. Every other step edits a Clone of the side it touches, as a
// server hands the engine a new object for a schema whose version moved.
// After every step the incrementally re-matched matrix must be
// bit-identical to a cold full run — the same oracle as the seeded
// differential suite, but with adversarial scripts.
func FuzzRematchEquivalence(f *testing.F) {
	f.Add([]byte{0x00, 0x31, 0x57, 0x83})
	f.Add([]byte{0x10, 0x22, 0x44, 0x66, 0x88, 0xaa})
	f.Add([]byte{0xff, 0x01, 0xfe, 0x02, 0xfd})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 24 {
			script = script[:24] // keep each case cheap; depth comes from fuzzing
		}
		cfg := registry.DefaultConfig()
		cfg.Seed = 5
		cfg.Models = 1
		cfg.ElementsTotal = 4
		cfg.AttributesTotal = 14
		cfg.DomainValuesTotal = 20
		reg := registry.Generate(cfg)
		src := reg.Models[0]
		tgt, _ := registry.Perturb(src, registry.DefaultPerturb())

		cache := matchcache.New(obs.NewRegistry())
		live := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry(), Cache: cache})
		live.Run()

		for step, b := range script {
			side, sch := "src", src
			if b&0x08 != 0 {
				side, sch = "tgt", tgt
			}
			if step%2 == 1 {
				sch = sch.Clone()
				if side == "src" {
					src = sch
				} else {
					tgt = sch
				}
			}
			els := sch.Elements()
			if len(els) == 0 {
				continue
			}
			e := els[int(b>>4)%len(els)]
			switch b & 0x07 {
			case 0, 1:
				e.Name = fmt.Sprintf("%sF%d", e.Name, step)
			case 2:
				e.Doc = e.Doc + fmt.Sprintf(" fuzz%d", step)
			case 3:
				n := sch.AddElement(e, fmt.Sprintf("fz%d", step), model.KindAttribute, model.ContainsAttribute)
				n.DataType = "string"
			case 4:
				if len(els) > 6 {
					sch.RemoveElement(e.ID)
				}
			case 5:
				e.DataType = "integer"
			case 6:
				other := tgt
				if side == "tgt" {
					other = src
				}
				oels := other.Elements()
				if len(oels) == 0 {
					continue
				}
				o := oels[int(b>>4)%len(oels)]
				if side == "src" {
					_ = live.Accept(e.ID, o.ID)
				} else {
					_ = live.Accept(o.ID, e.ID)
				}
			default:
				e.Required = !e.Required
			}
			live.rematch(context.Background(), src, tgt, Dirty{})

			cold := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry()})
			replayDecisions(live, cold)
			cold.Run()
			want, got := cold.Matrix(), live.Matrix()
			if len(want.Sources) != len(got.Sources) || len(want.Targets) != len(got.Targets) {
				t.Fatalf("step %d: dimensions %dx%d vs %dx%d", step,
					len(want.Sources), len(want.Targets), len(got.Sources), len(got.Targets))
			}
			for i := range want.Sources {
				for j := range want.Targets {
					if math.Float64bits(want.At(i, j)) != math.Float64bits(got.At(i, j)) {
						t.Fatalf("step %d (op %#x, mode %s): cell (%s, %s): cold %v vs rematch %v",
							step, b, live.LastRematchMode(),
							want.Sources[i].ID, want.Targets[j].ID,
							want.At(i, j), got.At(i, j))
					}
				}
			}
		}
	})
}
