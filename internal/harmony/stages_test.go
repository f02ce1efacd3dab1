package harmony

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/match"
	"repro/internal/matchcache"
	"repro/internal/obs"
)

// TestStageSequenceGolden pins the stage spans every entry point emits:
// for a fixed script against one fresh registry it asserts each call's
// []StageTiming name sequence and how many times every (metric, stage)
// histogram series was observed. The -timings rows, the E2 table and
// the stage histograms all read these; a refactor of how stages are
// timed must leave both unchanged.
func TestStageSequenceGolden(t *testing.T) {
	reg := obs.NewRegistry()
	cache := matchcache.New(obs.NewRegistry())
	opts := Options{Flooding: true, Metrics: reg, Cache: cache}
	src, tgt := poSource(), siTarget()
	live := NewEngine(src, tgt, opts)

	panel := "voter:name voter:documentation voter:thesaurus voter:domain-values voter:data-type voter:structure"
	pipeline := panel + " merge flooding pin-decisions"
	steps := []struct {
		name, mode, stages string
		call               func() []StageTiming
	}{
		{"cold run", "", pipeline, live.Run},
		{"cache hit", "", pipeline, func() []StageTiming { return NewEngine(src, tgt, opts).Run() }},
		{"pins", RematchPins, "signatures", func() []StageTiming {
			if err := live.Accept(firstID, nameID); err != nil {
				t.Fatal(err)
			}
			return live.Rematch(Dirty{})
		}},
		{"rename", RematchIncremental, "signatures context " + pipeline, func() []StageTiming {
			src.Element(lastID).Name = "surname"
			return live.Rematch(Dirty{})
		}},
		{"doc edit", RematchCorpus, "signatures context " + pipeline, func() []StageTiming {
			el := src.Element(subtotalID)
			el.Doc += " excluding shipping charges"
			return live.Rematch(Dirty{})
		}},
		{"learn", RematchFull, pipeline, func() []StageTiming {
			live.Learn()
			return live.Rematch(Dirty{})
		}},
		{"blocking", "", "blocking " + pipeline, func() []StageTiming {
			o := opts
			o.Blocking = match.BlockingOptions{Enabled: true, PerSourceK: 2}
			return NewEngine(poSource(), siTarget(), o).Run()
		}},
	}
	for _, st := range steps {
		timings := st.call()
		got := make([]string, len(timings))
		for i, tm := range timings {
			got[i] = tm.Stage
		}
		if want := strings.Fields(st.stages); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stages %v, want %v", st.name, got, want)
		}
		if st.mode != "" && live.LastRematchMode() != st.mode {
			t.Errorf("%s: rematch mode %s, want %s", st.name, live.LastRematchMode(), st.mode)
		}
	}

	// Four runs (cold, cache hit, the post-Learn fallback, blocking) and
	// four rematches (pins, rename, doc edit, and the signature diff of
	// the Learn rematch before it falls back). A pins rematch runs no
	// stage after signatures: Accept already pinned the live matrix.
	want := map[string]uint64{
		MetricStageDuration + "|blocking":             1,
		MetricRematchStageDuration + "|signatures":    4,
		MetricRematchStageDuration + "|context":       2,
		MetricRematchStageDuration + "|pin-decisions": 2,
		MetricRematchStageDuration + "|merge":         2,
		MetricRematchStageDuration + "|flooding":      2,
		MetricStageDuration + "|merge":                4,
		MetricStageDuration + "|flooding":             4,
		MetricStageDuration + "|pin-decisions":        4,
	}
	for _, v := range strings.Fields(panel) {
		want[MetricStageDuration+"|"+v] = 4
		want[MetricRematchStageDuration+"|"+v] = 2
	}
	got := map[string]uint64{}
	for _, metric := range []string{MetricStageDuration, MetricRematchStageDuration} {
		m, ok := reg.Find(metric)
		if !ok {
			t.Fatalf("%s not in registry", metric)
		}
		for _, s := range m.Series {
			got[metric+"|"+s.Labels["stage"]] = s.Count
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("series counts:\n got %v\nwant %v", got, want)
	}
}
