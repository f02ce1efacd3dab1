package obs

import (
	"context"
	"sync"
	"time"
)

// Attr is one key/value span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one finished span.
type SpanRecord struct {
	Name     string
	Start    time.Time
	Duration time.Duration
	// Trace/ID/Parent link the span into a distributed trace; all zero
	// for spans recorded outside any trace (collected stage timing).
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Attrs  []Attr
	// Err is the span's failure status ("" on success).
	Err string
}

// Span is one in-flight timed operation, opened by StartSpan,
// TraceStore.StartRoot or Collector.Start.
type Span struct {
	sink  *TraceStore
	coll  *Collector
	name  string
	start time.Time

	sc     SpanContext
	parent SpanID

	// attrMu guards attrs and err: a span is usually owned by one
	// goroutine, but attribute writers (e.g. a cache layer annotating its
	// caller's span) may race with End under -race-tested servers.
	attrMu sync.Mutex
	attrs  []Attr
	err    string
}

// Context returns the span's trace coordinates (zero outside a trace).
func (s *Span) Context() SpanContext { return s.sc }

// Recording reports whether the span belongs to a trace; inert spans
// (StartSpan on a context without a trace) report false so callers can
// skip attribute work.
func (s *Span) Recording() bool { return s.sink != nil && s.sc.Valid() }

// SetAttr attaches a key/value attribute to the span (no-op on inert
// spans).
func (s *Span) SetAttr(key, value string) {
	if !s.Recording() {
		return
	}
	s.attrMu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.attrMu.Unlock()
}

// SetError marks the span failed. A nil error is ignored.
func (s *Span) SetError(err error) {
	if err == nil || !s.Recording() {
		return
	}
	s.attrMu.Lock()
	s.err = err.Error()
	s.attrMu.Unlock()
}

// End finishes the span, exports it to its trace store when it belongs
// to a trace, records it in its collector when one opened it, and
// returns its duration.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	if s.coll == nil && !s.Recording() {
		return d
	}
	s.attrMu.Lock()
	rec := SpanRecord{
		Name: s.name, Start: s.start, Duration: d,
		Trace: s.sc.Trace, ID: s.sc.Span, Parent: s.parent,
		Attrs: s.attrs, Err: s.err,
	}
	s.attrMu.Unlock()
	if s.Recording() {
		s.sink.add(rec)
	}
	if c := s.coll; c != nil {
		c.mu.Lock()
		c.spans = append(c.spans, rec)
		c.mu.Unlock()
	}
	return d
}

// Collector gathers the spans one unit of work opens through it, so the
// work can read back its own timings whether or not it runs inside a
// request trace. The Harmony engine opens each pipeline stage through a
// per-run collector and derives []StageTiming and its stage histograms
// from the records.
//
// Only spans opened by Start are collected. Their children (a cache
// lookup under a stage, say) join the trace as usual but not the
// collector.
type Collector struct {
	ctx   context.Context
	mu    sync.Mutex
	spans []SpanRecord
}

// NewCollector returns a collector whose spans are children of the span
// ctx carries (if any).
func NewCollector(ctx context.Context) *Collector { return &Collector{ctx: ctx} }

// Start opens a span named name as StartSpan(ctx, name) would; when it
// ends it is recorded in the collector as well as in the trace.
func (c *Collector) Start(name string) (*Span, context.Context) {
	sp, ctx := StartSpan(c.ctx, name)
	sp.coll = c
	return sp, ctx
}

// Spans returns the collected spans in end order (a copy).
func (c *Collector) Spans() []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanRecord(nil), c.spans...)
}
