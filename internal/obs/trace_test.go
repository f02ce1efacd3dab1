package obs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestTraceHeaderRoundtrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	h := sc.Header()
	if len(h) != 33 || h[16] != '-' {
		t.Fatalf("header %q has wrong shape", h)
	}
	got, ok := ParseTraceHeader(h)
	if !ok || got != sc {
		t.Fatalf("ParseTraceHeader(%q) = %+v, %v; want %+v", h, got, ok, sc)
	}
	for _, bad := range []string{"", "xyz", h[:32], h + "0", strings.Replace(h, "-", "_", 1),
		"0000000000000000-" + sc.Span.String(), sc.Trace.String() + "-0000000000000000"} {
		if _, ok := ParseTraceHeader(bad); ok {
			t.Errorf("ParseTraceHeader(%q) accepted a malformed header", bad)
		}
	}
}

// TestParseTraceHeaderMalformedTable pins down every reject class of the
// header parser: the replication and request paths feed it
// attacker-controlled bytes, so "almost right" shapes must fail closed
// rather than produce a zero or aliased span context.
func TestParseTraceHeaderMalformedTable(t *testing.T) {
	cases := []struct {
		name  string
		h     string
		ok    bool
		canon string // expected canonical re-render when accepted ("" = h itself)
	}{
		{name: "valid", h: "0123456789abcdef-fedcba9876543210", ok: true},
		{name: "valid all digits", h: "1111111111111111-2222222222222222", ok: true},
		// ParseUint is case-insensitive; the canonical form is lowercase.
		{name: "uppercase hex", h: "0123456789ABCDEF-FEDCBA9876543210", ok: true,
			canon: "0123456789abcdef-fedcba9876543210"},
		{name: "empty", h: ""},
		{name: "too short", h: "0123456789abcdef-fedcba987654321"},
		{name: "too long", h: "0123456789abcdef-fedcba98765432100"},
		{name: "separator missing", h: "0123456789abcdef0fedcba9876543210"},
		{name: "separator wrong place", h: "0123456789abcde-ffedcba9876543210"},
		{name: "underscore separator", h: "0123456789abcdef_fedcba9876543210"},
		{name: "zero trace id", h: "0000000000000000-fedcba9876543210"},
		{name: "zero span id", h: "0123456789abcdef-0000000000000000"},
		{name: "non-hex in trace", h: "0123456789abcdeg-fedcba9876543210"},
		{name: "non-hex in span", h: "0123456789abcdef-fedcba987654321g"},
		{name: "signed span", h: "0123456789abcdef-+edcba9876543210"},
		{name: "whitespace padding", h: " 123456789abcdef-fedcba9876543210"},
		{name: "two separators", h: "0123456789abcdef--edcba9876543210"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, ok := ParseTraceHeader(tc.h)
			if ok != tc.ok {
				t.Fatalf("ParseTraceHeader(%q) ok = %v, want %v", tc.h, ok, tc.ok)
			}
			if !ok {
				if sc.Trace != 0 || sc.Span != 0 {
					t.Fatalf("rejected header %q returned non-zero context %+v", tc.h, sc)
				}
				return
			}
			want := tc.canon
			if want == "" {
				want = tc.h
			}
			if sc.Header() != want {
				t.Fatalf("accepted header %q re-renders as %q, want %q", tc.h, sc.Header(), want)
			}
		})
	}
}

func TestStartSpanWithoutParentIsInert(t *testing.T) {
	sp, ctx := StartSpan(context.Background(), "orphan")
	if sp.Recording() {
		t.Error("span without a traced parent must not record")
	}
	sp.SetAttr("k", "v")
	sp.SetError(errors.New("boom"))
	if d := sp.End(); d < 0 {
		t.Errorf("End returned negative duration %v", d)
	}
	// The inert span still flows through the context so nested StartSpan
	// calls stay cheap and inert too.
	child, _ := StartSpan(ctx, "nested")
	if child.Recording() {
		t.Error("child of an inert span must be inert")
	}
}

func TestTraceStoreAssemblesTree(t *testing.T) {
	ts := NewTraceStore(8)
	root, ctx := ts.StartRoot(context.Background(), "request", SpanContext{})
	if !root.Recording() {
		t.Fatal("root span must record")
	}
	child, cctx := StartSpan(ctx, "txn")
	grand, _ := StartSpan(cctx, "fsync")
	grand.SetAttr("ops", "3")
	grand.End()
	child.End()
	root.End()

	tr, ok := ts.Get(root.Context().Trace)
	if !ok {
		t.Fatal("trace not retained")
	}
	if tr.Root != "request" || len(tr.Spans) != 3 {
		t.Fatalf("trace = root %q, %d spans", tr.Root, len(tr.Spans))
	}
	if tr.Duration <= 0 {
		t.Error("root duration not recorded")
	}
	byID := map[SpanID]SpanRecord{}
	for _, sp := range tr.Spans {
		byID[sp.ID] = sp
	}
	find := func(name string) SpanRecord {
		for _, sp := range tr.Spans {
			if sp.Name == name {
				return sp
			}
		}
		t.Fatalf("span %q missing", name)
		return SpanRecord{}
	}
	if find("txn").Parent != root.Context().Span {
		t.Error("txn span not parented under the root")
	}
	if find("fsync").Parent != find("txn").ID {
		t.Error("fsync span not parented under txn")
	}
	if a := find("fsync").Attrs; len(a) != 1 || a[0].Key != "ops" || a[0].Value != "3" {
		t.Errorf("fsync attrs = %+v", a)
	}
}

func TestTraceStoreContinuesRemoteTrace(t *testing.T) {
	ts := NewTraceStore(8)
	remote := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	root, _ := ts.StartRoot(context.Background(), "request", remote)
	if root.Context().Trace != remote.Trace {
		t.Error("root did not adopt the propagated trace ID")
	}
	root.End()
	tr, ok := ts.Get(remote.Trace)
	if !ok || len(tr.Spans) != 1 {
		t.Fatalf("trace = %+v, %v", tr, ok)
	}
	if tr.Spans[0].Parent != remote.Span {
		t.Error("root span not parented under the remote caller's span")
	}
}

func TestTraceStoreEvictsOldest(t *testing.T) {
	ts := NewTraceStore(2)
	var ids []TraceID
	for i := 0; i < 3; i++ {
		root, _ := ts.StartRoot(context.Background(), "request", SpanContext{})
		root.End()
		ids = append(ids, root.Context().Trace)
	}
	if ts.Len() != 2 {
		t.Fatalf("store holds %d traces, want 2", ts.Len())
	}
	if _, ok := ts.Get(ids[0]); ok {
		t.Error("oldest trace survived eviction")
	}
	for _, id := range ids[1:] {
		if _, ok := ts.Get(id); !ok {
			t.Errorf("trace %s evicted too early", id)
		}
	}
}

func TestTraceStoreCapsSpansPerTrace(t *testing.T) {
	ts := NewTraceStore(2)
	root, ctx := ts.StartRoot(context.Background(), "request", SpanContext{})
	for i := 0; i < maxSpansPerTrace+10; i++ {
		sp, _ := StartSpan(ctx, "hot")
		sp.End()
	}
	root.End()
	tr, _ := ts.Get(root.Context().Trace)
	if len(tr.Spans) != maxSpansPerTrace {
		t.Errorf("trace holds %d spans, want the %d cap", len(tr.Spans), maxSpansPerTrace)
	}
	// +11: the 10 extra children plus the root span itself ended last.
	if tr.DroppedSpans != 11 {
		t.Errorf("DroppedSpans = %d, want 11", tr.DroppedSpans)
	}
}

func TestTraceStoreSlow(t *testing.T) {
	ts := NewTraceStore(8)
	fast, _ := ts.StartRoot(context.Background(), "fast", SpanContext{})
	fast.End()
	slow, _ := ts.StartRoot(context.Background(), "slow", SpanContext{})
	time.Sleep(5 * time.Millisecond)
	slow.End()

	got := ts.Slow(2*time.Millisecond, 0)
	if len(got) != 1 || got[0].Root != "slow" {
		t.Fatalf("Slow = %+v", got)
	}
}
