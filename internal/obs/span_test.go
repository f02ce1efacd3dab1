package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestNestedSpans runs a collector inside a request trace: collected
// spans are children of the context's span, and a span opened under a
// collected one joins the trace with its parent link but is not
// collected.
func TestNestedSpans(t *testing.T) {
	ts := NewTraceStore(4)
	root, ctx := ts.StartRoot(context.Background(), "request", SpanContext{})
	col := NewCollector(ctx)
	stage, sctx := col.Start("merge")
	grand, _ := StartSpan(sctx, "matchcache.get")
	grand.SetAttr("cache_hit", "true")
	grand.End()
	stage.End()
	other, _ := col.Start("flooding")
	other.End()
	root.End()

	got := col.Spans()
	if len(got) != 2 || got[0].Name != "merge" || got[1].Name != "flooding" {
		t.Fatalf("collected = %+v, want merge then flooding", got)
	}
	for _, rec := range got {
		if rec.Trace != root.Context().Trace || rec.Parent != root.Context().Span {
			t.Errorf("collected %q not parented under the request root", rec.Name)
		}
	}

	tr, _ := ts.Get(root.Context().Trace)
	byName := map[string]SpanRecord{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = sp
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("trace spans = %d, want 4", len(tr.Spans))
	}
	if byName["merge"].ID != got[0].ID {
		t.Error("collected and traced records of one span differ")
	}
	if g := byName["matchcache.get"]; g.Parent != got[0].ID || len(g.Attrs) != 1 {
		t.Errorf("grandchild = %+v, want a child of merge carrying its attr", g)
	}
}

// TestCollectorOutsideTrace checks that a collector records its spans
// without any trace, while spans below them stay inert.
func TestCollectorOutsideTrace(t *testing.T) {
	col := NewCollector(context.Background())
	sp, ctx := col.Start("merge")
	if sp.Recording() {
		t.Error("span outside a trace must not report Recording")
	}
	child, _ := StartSpan(ctx, "matchcache.get")
	if child.Recording() {
		t.Error("child of an untraced collected span must be inert")
	}
	child.End()
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Errorf("span duration %v too short", d)
	}
	got := col.Spans()
	if len(got) != 1 || got[0].Name != "merge" || got[0].Duration != d {
		t.Fatalf("collected = %+v, want one merge span of %v", got, d)
	}
	if got[0].Trace != 0 || got[0].ID != 0 || got[0].Parent != 0 {
		t.Errorf("untraced record carries trace coordinates: %+v", got[0])
	}
}

// TestCollectorConcurrent ends spans of one collector from many
// goroutines; under -race this guards the collector's synchronization.
func TestCollectorConcurrent(t *testing.T) {
	col := NewCollector(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp, _ := col.Start("stage")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if n := len(col.Spans()); n != 800 {
		t.Errorf("collected spans = %d, want 800", n)
	}
}
