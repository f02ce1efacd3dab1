package match

import (
	"math"
	"testing"
)

func twoVoterVotes(cA, cB float64) []Vote {
	src, tgt := sourceSchema(), targetSchema()
	ma := MatrixOver(src, tgt)
	mb := MatrixOver(src, tgt)
	ma.SetAt(0, 0, cA)
	mb.SetAt(0, 0, cB)
	return []Vote{{"A", ma}, {"B", mb}}
}

func TestMergeMagnitudeWeighting(t *testing.T) {
	g := NewMerger()
	// Strong positive (0.9) vs weak negative (-0.1): magnitude weighting
	// should land clearly positive, much closer to 0.9 than the plain
	// mean (0.4).
	merged := g.Merge(twoVoterVotes(0.9, -0.1))
	got := merged.At(0, 0)
	want := (0.9*0.9 - 0.1*0.1) / (0.9 + 0.1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("merged = %g, want %g", got, want)
	}
	if got <= 0.4 {
		t.Errorf("magnitude weighting should beat plain mean: %g", got)
	}
}

func TestMergeWithoutMagnitudeWeighting(t *testing.T) {
	g := NewMerger()
	g.MagnitudeWeighting = false
	merged := g.Merge(twoVoterVotes(0.9, -0.1))
	if got := merged.At(0, 0); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("plain mean = %g, want 0.4", got)
	}
}

func TestMergeAbstainersIgnored(t *testing.T) {
	g := NewMerger()
	// One voter abstains (0): result is the other voter's score.
	merged := g.Merge(twoVoterVotes(0.6, 0))
	if got := merged.At(0, 0); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("merged = %g, want 0.6", got)
	}
	// All abstain → 0.
	merged = g.Merge(twoVoterVotes(0, 0))
	if got := merged.At(0, 0); got != 0 {
		t.Errorf("all-abstain merged = %g", got)
	}
}

func TestMergePerformanceWeights(t *testing.T) {
	g := NewMerger()
	g.SetWeight("A", 4)
	g.SetWeight("B", 1)
	merged := g.Merge(twoVoterVotes(0.5, -0.5))
	// Equal magnitudes; weights 4:1 → (4*0.5 - 1*0.5)/(4+1) * ... =
	// (2 - 0.5)/(2.5) ... compute: num = 4*0.5*0.5 + 1*0.5*(-0.5) = 1 - 0.25
	// = 0.75; den = 4*0.5 + 1*0.5 = 2.5 → 0.3.
	if got := merged.At(0, 0); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("weighted merge = %g, want 0.3", got)
	}
}

func TestMergeClampsToOpenInterval(t *testing.T) {
	g := NewMerger()
	merged := g.Merge(twoVoterVotes(0.999, 0.999))
	if got := merged.At(0, 0); got > 0.99 {
		t.Errorf("machine scores must stay below +1: %g", got)
	}
}

func TestMergeEmpty(t *testing.T) {
	if got := NewMerger().Merge(nil); got != nil {
		t.Error("empty vote list should merge to nil")
	}
}

func TestSetWeightClamps(t *testing.T) {
	g := NewMerger()
	g.SetWeight("A", 100)
	if g.Weight("A") != 5 {
		t.Errorf("upper clamp: %g", g.Weight("A"))
	}
	g.SetWeight("A", 0)
	if g.Weight("A") != 0.05 {
		t.Errorf("lower clamp: %g", g.Weight("A"))
	}
	if g.Weight("unknown") != 1 {
		t.Error("unlearned weight should be 1")
	}
}

func TestLearnWeights(t *testing.T) {
	src, tgt := sourceSchema(), targetSchema()
	good := MatrixOver(src, tgt) // agrees with the user
	bad := MatrixOver(src, tgt)  // disagrees
	sID := "purchaseOrder/purchaseOrder/shipTo"
	tID := "shippingInfo/shippingInfo"
	good.Set(sID, tID, 0.8)
	bad.Set(sID, tID, -0.8)
	votes := []Vote{{"good", good}, {"bad", bad}}
	g := NewMerger()
	g.LearnWeights(votes, []Feedback{{sID, tID, true}}, 0.2)
	if g.Weight("good") <= 1 {
		t.Errorf("agreeing voter weight = %g, want > 1", g.Weight("good"))
	}
	if g.Weight("bad") >= 1 {
		t.Errorf("disagreeing voter weight = %g, want < 1", g.Weight("bad"))
	}
	// Rejection feedback flips the credit.
	g2 := NewMerger()
	g2.LearnWeights(votes, []Feedback{{sID, tID, false}}, 0.2)
	if g2.Weight("good") >= 1 || g2.Weight("bad") <= 1 {
		t.Errorf("rejection learning: good=%g bad=%g", g2.Weight("good"), g2.Weight("bad"))
	}
}

func TestLearnWeightsAbstainerUnchanged(t *testing.T) {
	src, tgt := sourceSchema(), targetSchema()
	abstainer := MatrixOver(src, tgt) // all zeros
	votes := []Vote{{"abstainer", abstainer}}
	g := NewMerger()
	g.LearnWeights(votes, []Feedback{{"purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo", true}}, 0.2)
	if g.Weight("abstainer") != 1 {
		t.Errorf("abstaining voter should not be penalized: %g", g.Weight("abstainer"))
	}
}

func TestLearnWeightsDefaultRate(t *testing.T) {
	src, tgt := sourceSchema(), targetSchema()
	m := MatrixOver(src, tgt)
	sID, tID := "purchaseOrder/purchaseOrder/shipTo", "shippingInfo/shippingInfo"
	m.Set(sID, tID, 1)
	g := NewMerger()
	g.LearnWeights([]Vote{{"v", m}}, []Feedback{{sID, tID, true}}, 0)
	if math.Abs(g.Weight("v")-1.1) > 1e-12 {
		t.Errorf("default rate: %g, want 1.1", g.Weight("v"))
	}
}

func TestWeightsCopy(t *testing.T) {
	g := NewMerger()
	g.SetWeight("A", 2)
	w := g.Weights()
	w["A"] = 99
	if g.Weight("A") != 2 {
		t.Error("Weights() must return a copy")
	}
}
