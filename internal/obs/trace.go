package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Request-scoped distributed tracing (DESIGN.md §13). A trace is a tree
// of spans sharing one 64-bit TraceID; each span carries its own SpanID
// and its parent's, so a request that crosses the client/server wire and
// then descends through manager transaction, Harmony stages, cache
// lookups and WAL fsync reassembles into one tree. Spans reach a
// TraceStore — a bounded in-memory buffer of recent traces — via the
// context: the HTTP layer opens a root span per request, puts it in the
// request context, and every instrumented layer below starts children
// from whatever span the context carries. Code running outside any
// request (CLI, tests, background work) pays almost nothing: StartSpan
// without a parent returns an inert span.

// TraceID identifies one distributed trace (non-zero when valid).
type TraceID uint64

// SpanID identifies one span within a trace (non-zero when valid).
type SpanID uint64

// String renders the ID as 16 lowercase hex digits.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// ParseTraceID parses the 16-hex-digit form (ok=false on any failure).
func ParseTraceID(s string) (TraceID, bool) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return TraceID(v), true
}

// NewTraceID returns a random non-zero trace ID.
func NewTraceID() TraceID {
	for {
		if v := rand.Uint64(); v != 0 {
			return TraceID(v)
		}
	}
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() SpanID {
	for {
		if v := rand.Uint64(); v != 0 {
			return SpanID(v)
		}
	}
}

// SpanContext is the wire-propagatable identity of one span.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

// Header renders the context in the X-Ib-Trace wire form:
// "<trace hex16>-<span hex16>".
func (sc SpanContext) Header() string {
	return sc.Trace.String() + "-" + sc.Span.String()
}

// ParseTraceHeader parses the X-Ib-Trace wire form. A missing or
// malformed header yields ok=false — tracing is always best-effort, so
// callers treat that as "start a fresh trace".
func ParseTraceHeader(h string) (SpanContext, bool) {
	if len(h) != 33 || h[16] != '-' {
		return SpanContext{}, false
	}
	tr, ok := ParseTraceID(h[:16])
	if !ok {
		return SpanContext{}, false
	}
	spv, err := strconv.ParseUint(h[17:], 16, 64)
	if err != nil || spv == 0 {
		return SpanContext{}, false
	}
	return SpanContext{Trace: tr, Span: SpanID(spv)}, true
}

// ---- context plumbing ----

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sp; instrumented layers
// below will parent their spans under it.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx (nil when none).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartSpan begins a child of whatever span ctx carries and returns it
// with a derived context. Without a parent span the returned span is
// inert — End still returns a duration, but nothing is recorded — so
// hot paths can call this unconditionally.
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	sp := &Span{name: name, start: time.Now()}
	if parent := SpanFromContext(ctx); parent != nil && parent.sc.Valid() {
		sp.sink = parent.sink
		sp.sc = SpanContext{Trace: parent.sc.Trace, Span: NewSpanID()}
		sp.parent = parent.sc.Span
	}
	return sp, ContextWithSpan(ctx, sp)
}

// ---- trace store ----

// DefaultTraceCapacity bounds a TraceStore to this many traces when no
// explicit capacity is given.
const DefaultTraceCapacity = 256

// maxSpansPerTrace caps one trace's span count; a runaway request (a
// pathological pipeline fan-out) drops its excess spans rather than
// growing the store without bound.
const maxSpansPerTrace = 512

// Trace is one assembled request trace.
type Trace struct {
	ID TraceID
	// Root is the name of the trace's root span (the span the store
	// itself opened — its parent, if any, lives in another process).
	Root  string
	Start time.Time
	// Duration is the root span's duration (0 until the root ends).
	Duration time.Duration
	// Spans are the finished spans in end order.
	Spans []SpanRecord
	// DroppedSpans counts spans discarded past maxSpansPerTrace.
	DroppedSpans int
}

// TraceStore is a bounded in-memory buffer of recent traces. The HTTP
// layer opens one root span per request via StartRoot; everything the
// request touches adds child spans through the context. Oldest traces
// are evicted FIFO past the capacity.
type TraceStore struct {
	mu     sync.Mutex
	cap    int
	traces map[TraceID]*storedTrace
	order  []TraceID // creation order, oldest first
	seq    uint64
}

type storedTrace struct {
	trace    Trace
	rootSpan SpanID
	seq      uint64
}

// NewTraceStore returns a store retaining the most recent capacity
// traces (capacity <= 0 selects DefaultTraceCapacity).
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceStore{cap: capacity, traces: map[TraceID]*storedTrace{}}
}

// StartRoot opens the local root span of a trace: a fresh trace when
// remote is invalid, or a continuation (the remote caller's span becomes
// the root's parent) when a propagated header supplied one. The span is
// registered immediately so an in-flight request is already visible.
func (ts *TraceStore) StartRoot(ctx context.Context, name string, remote SpanContext) (*Span, context.Context) {
	sp := &Span{name: name, start: time.Now(), sink: ts}
	if remote.Valid() {
		sp.sc = SpanContext{Trace: remote.Trace, Span: NewSpanID()}
		sp.parent = remote.Span
	} else {
		sp.sc = SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	}
	ts.register(sp)
	return sp, ContextWithSpan(ctx, sp)
}

// register creates the trace bucket for a root span, evicting the
// oldest trace past capacity.
func (ts *TraceStore) register(sp *Span) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.traces[sp.sc.Trace]; ok {
		return // a second root on one trace ID keeps the first bucket
	}
	ts.seq++
	ts.traces[sp.sc.Trace] = &storedTrace{
		trace:    Trace{ID: sp.sc.Trace, Root: sp.name, Start: sp.start},
		rootSpan: sp.sc.Span,
		seq:      ts.seq,
	}
	ts.order = append(ts.order, sp.sc.Trace)
	for len(ts.order) > ts.cap {
		evict := ts.order[0]
		ts.order = ts.order[1:]
		delete(ts.traces, evict)
	}
}

// add records one finished span into its trace (dropping it silently if
// the trace was evicted or never registered).
func (ts *TraceStore) add(rec SpanRecord) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	st, ok := ts.traces[rec.Trace]
	if !ok {
		return
	}
	if len(st.trace.Spans) >= maxSpansPerTrace {
		st.trace.DroppedSpans++
		return
	}
	st.trace.Spans = append(st.trace.Spans, rec)
	if rec.ID == st.rootSpan {
		st.trace.Duration = rec.Duration
	}
}

// Len reports the number of retained traces.
func (ts *TraceStore) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.traces)
}

// Get returns one trace by ID.
func (ts *TraceStore) Get(id TraceID) (Trace, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	st, ok := ts.traces[id]
	if !ok {
		return Trace{}, false
	}
	return cloneTrace(st.trace), true
}

// Recent returns up to n traces, newest first (n <= 0 means all).
func (ts *TraceStore) Recent(n int) []Trace {
	return ts.filter(n, func(Trace) bool { return true })
}

// Slow returns up to n completed traces whose root span took at least
// threshold, newest first — the slow-request log.
func (ts *TraceStore) Slow(threshold time.Duration, n int) []Trace {
	return ts.filter(n, func(t Trace) bool { return t.Duration >= threshold && t.Duration > 0 })
}

func (ts *TraceStore) filter(n int, keep func(Trace) bool) []Trace {
	ts.mu.Lock()
	stored := make([]*storedTrace, 0, len(ts.traces))
	for _, st := range ts.traces {
		stored = append(stored, st)
	}
	ts.mu.Unlock()
	sort.Slice(stored, func(i, j int) bool { return stored[i].seq > stored[j].seq })
	out := []Trace{}
	for _, st := range stored {
		ts.mu.Lock()
		t := cloneTrace(st.trace)
		ts.mu.Unlock()
		if !keep(t) {
			continue
		}
		out = append(out, t)
		if n > 0 && len(out) >= n {
			break
		}
	}
	return out
}

func cloneTrace(t Trace) Trace {
	c := t
	c.Spans = append([]SpanRecord(nil), t.Spans...)
	return c
}
