// Package wbmgr implements the workbench manager of paper §5.2: "All
// interaction with the IB occurs via the workbench manager, which
// coordinates matchers, mappers, importers, and other tools. The manager
// provides several services: First, it provides transactional updates to
// the IB. Second, following each update, it notifies the other tools
// using an event. Third, the manager processes ad hoc queries posed to
// the IB."
package wbmgr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/blackboard"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/obs/logx"
	"repro/internal/rdf"
)

// Metric names emitted by the manager (see DESIGN.md "Observability").
// The manager is the mediation layer for every tool (paper §5.2), which
// makes it the natural choke point for instrumentation.
const (
	MetricTxnBegin       = "wbmgr_txn_begin_total"
	MetricTxnCommit      = "wbmgr_txn_commit_total"
	MetricTxnAbort       = "wbmgr_txn_abort_total"
	MetricCommitDuration = "wbmgr_txn_commit_duration_seconds"
	// MetricEventsPublished is labeled kind=<EventKind>.
	MetricEventsPublished = "wbmgr_events_published_total"
	// MetricEventsDropped counts events evicted from the event log.
	MetricEventsDropped = "wbmgr_eventlog_dropped_total"
	// MetricToolInvocations is labeled tool=<name>, status=ok|error.
	MetricToolInvocations = "wbmgr_tool_invocations_total"
	// MetricInvokeDuration is labeled tool=<name>.
	MetricInvokeDuration = "wbmgr_tool_invoke_duration_seconds"
	MetricQueries        = "wbmgr_queries_total"
	MetricQueryDuration  = "wbmgr_query_duration_seconds"
	// MetricTxnRollbacks counts transactions rolled back, labeled
	// cause=abort (explicit Abort), cause=commit-fault (a fault at the
	// commit failpoint forced the rollback) or cause=hook-fault (the
	// commit hook — typically the WAL append — refused the commit).
	MetricTxnRollbacks = "wbmgr_txn_rollbacks_total"
	// MetricInvokeRetries counts retried tool invocations, labeled tool.
	MetricInvokeRetries = "wbmgr_invoke_retries_total"
	// MetricPublishPanics counts subscriber handlers that panicked during
	// event delivery (recovered per handler), labeled tool.
	MetricPublishPanics = "wbmgr_publish_panics_total"
)

// Chaos failpoint sites threaded through the manager (see DESIGN.md
// "Fault model & invariants").
const (
	// SiteBegin fires before a transaction starts (Begin fails cleanly).
	SiteBegin chaos.Site = "wbmgr.begin"
	// SiteCommit fires inside Commit before the transaction is sealed; a
	// fault here rolls the whole transaction back (atomicity).
	SiteCommit chaos.Site = "wbmgr.commit"
	// SiteAbort fires inside Abort; the rollback happens regardless.
	SiteAbort chaos.Site = "wbmgr.abort"
	// SitePublish fires once per handler delivery; an injected error
	// skips that handler, an injected panic exercises per-handler
	// recovery. The event log records the event before any delivery, so
	// neither fault hides it from EventsSince.
	SitePublish chaos.Site = "wbmgr.publish"
	// SiteInvoke fires before each tool invocation attempt, exercising
	// the retry/backoff path.
	SiteInvoke chaos.Site = "wbmgr.invoke"
)

func init() {
	chaos.RegisterSite(SiteBegin, "before a manager transaction begins")
	chaos.RegisterSite(SiteCommit, "inside Commit, before the txn is sealed")
	chaos.RegisterSite(SiteAbort, "inside Abort, before rollback")
	chaos.RegisterSite(SitePublish, "per-handler event delivery")
	chaos.RegisterSite(SiteInvoke, "before each tool Invoke attempt")
}

// ErrInvokeTimeout is wrapped by Invoke errors when a tool exceeds the
// configured invocation timeout.
var ErrInvokeTimeout = errors.New("wbmgr: tool invocation timed out")

// EventKind classifies blackboard-change events (paper §5.2.2): "a
// different type of event is generated for each major component of the IB
// so that a tool can register for only those events relevant to that
// tool."
type EventKind string

// The four event kinds of §5.2.2.
const (
	// EventSchemaGraph fires when a loader imports a schema.
	EventSchemaGraph EventKind = "schema-graph"
	// EventMappingCell fires when a correspondence is established.
	EventMappingCell EventKind = "mapping-cell"
	// EventMappingVector fires when a row/column transformation is set.
	EventMappingVector EventKind = "mapping-vector"
	// EventMappingMatrix fires when the assembled mapping changes.
	EventMappingMatrix EventKind = "mapping-matrix"
)

// Event is one blackboard-change notification.
type Event struct {
	Kind EventKind
	// Tool names the tool that made the change.
	Tool string
	// Subject identifies what changed: a schema name, mapping id, or
	// "mappingID|srcID|tgtID" for cells and "mappingID|tgtID" for vectors.
	Subject string
	// Seq is the event's position in the manager's event log, assigned
	// by Publish: contiguous from 1 per manager (so it restarts with the
	// process). Zero until the event is published.
	Seq uint64
}

// Handler receives events. Handlers run synchronously on the committing
// goroutine, after the transaction commits and the event is logged.
type Handler func(Event)

// Tool is the §5.2.1 tool interface: "the tool interface defines two
// methods ... an invoke method [and] each tool has the option of
// implementing an initialize method. Generally, this is done when a tool
// needs to register for events."
type Tool interface {
	// Name identifies the tool for provenance and event attribution.
	Name() string
	// Initialize is called once at registration; tools typically
	// subscribe to events here.
	Initialize(m *Manager) error
	// Invoke runs the tool with string arguments (CLI-style).
	Invoke(m *Manager, args map[string]string) error
}

// Manager mediates all access to one integration blackboard.
type Manager struct {
	bb *blackboard.Blackboard

	mu     sync.Mutex // guards txn state and registries
	inTxn  bool
	sp     rdf.Savepoint // undo-log savepoint of the active txn
	queued []Event       // events queued inside the active txn

	// policy configures Invoke's timeout/retry behaviour (zero value:
	// synchronous, no timeout, no retries — the historical behaviour).
	policy InvokePolicy

	// commitHook, when set, must durably record the transaction before
	// the commit is acknowledged (see SetCommitHook).
	commitHook CommitHook

	tools map[string]Tool
	subs  map[EventKind][]subscription
	subID int

	// The event log records every published event in a ring of logCap
	// slots indexed by sequence number — event s lives in slot
	// (s-1) % logCap — so an append never shifts. It retains seqs
	// logFirst..seq (none when logFirst > seq); the slice grows to
	// logCap, then wraps. wake, once a reader asked for it, is closed by
	// the next publish.
	seq      uint64
	logFirst uint64
	logCap   int
	log      []Event
	wake     chan struct{}

	metrics *obs.Registry
}

// DefaultEventLogCapacity bounds the event log when no explicit capacity
// is configured: a cursor client (GET /v1/events) that falls further
// behind than this sees a gap, and a long-running session's memory
// stays bounded.
const DefaultEventLogCapacity = 4096

type subscription struct {
	id      int
	tool    string
	handler Handler
}

// New returns a manager over a fresh blackboard.
func New() *Manager {
	return NewWith(blackboard.New())
}

// NewWith wraps an existing blackboard (e.g. a restored snapshot).
func NewWith(bb *blackboard.Blackboard) *Manager {
	m := &Manager{
		bb:       bb,
		tools:    map[string]Tool{},
		subs:     map[EventKind][]subscription{},
		logFirst: 1,
		logCap:   DefaultEventLogCapacity,
		metrics:  obs.Default(),
	}
	m.describeMetrics()
	return m
}

// SetMetrics redirects the manager's instrumentation to reg (nil resets
// to obs.Default()). Call before use; metric handles are re-resolved per
// operation so redirection takes effect immediately.
func (m *Manager) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	m.mu.Lock()
	m.metrics = reg
	m.mu.Unlock()
	m.describeMetrics()
}

func (m *Manager) describeMetrics() {
	r := m.reg()
	r.Describe(MetricTxnBegin, "Transactions begun on the workbench manager.")
	r.Describe(MetricTxnCommit, "Transactions committed.")
	r.Describe(MetricTxnAbort, "Transactions rolled back.")
	r.Describe(MetricCommitDuration, "Begin-to-commit latency of manager transactions.")
	r.Describe(MetricEventsPublished, "Events published (logged, then delivered to subscribers), by kind.")
	r.Describe(MetricEventsDropped, "Events evicted from the bounded event log.")
	r.Describe(MetricToolInvocations, "Tool Invoke calls, by tool and status.")
	r.Describe(MetricInvokeDuration, "Tool Invoke wall-clock time, by tool.")
	r.Describe(MetricQueries, "Ad hoc IB queries served.")
	r.Describe(MetricQueryDuration, "Ad hoc IB query latency.")
	r.Describe(MetricTxnRollbacks, "Transactions rolled back, by cause.")
	r.Describe(MetricInvokeRetries, "Retried tool invocations, by tool.")
	r.Describe(MetricPublishPanics, "Recovered subscriber-handler panics, by tool.")
}

// reg returns the current metrics registry under the lock.
func (m *Manager) reg() *obs.Registry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.metrics
}

// Blackboard exposes the underlying IB. Mutations outside a transaction
// are permitted (single-tool convenience) but generate no events.
func (m *Manager) Blackboard() *blackboard.Blackboard { return m.bb }

// CommitHook is called inside Txn.Commit, after the commit failpoint but
// before the transaction is sealed, with the transaction's context (which
// carries its trace span, so durability work joins the request trace),
// the committing tool's name and the transaction's effective mutations
// (the undo-journal entries since Begin, in application order). A
// non-nil error vetoes the commit: the whole transaction rolls back
// (cause=hook-fault) and no events fire. The write-ahead log hangs off
// this hook — AppendTxn returns only once the batch is fsynced, making
// "commit acknowledged" imply "durable".
type CommitHook func(ctx context.Context, tool string, ops []rdf.ChangeOp) error

// SetCommitHook installs h as the durability gate for every subsequent
// commit (nil removes it). Call before serving traffic; the hook runs
// on the committing goroutine, outside the manager lock.
func (m *Manager) SetCommitHook(h CommitHook) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.commitHook = h
}

// ---- Tool registry ----

// Register adds a tool and runs its Initialize hook.
func (m *Manager) Register(t Tool) error {
	m.mu.Lock()
	if _, dup := m.tools[t.Name()]; dup {
		m.mu.Unlock()
		return fmt.Errorf("wbmgr: tool %q already registered", t.Name())
	}
	m.tools[t.Name()] = t
	m.mu.Unlock()
	return t.Initialize(m)
}

// InvokePolicy bounds tool invocations. The zero value preserves the
// historical behaviour: synchronous, no timeout, no retries.
type InvokePolicy struct {
	// Timeout caps one invocation attempt (0 = unbounded). A timed-out
	// tool keeps running on its goroutine — the Tool interface has no
	// cancellation — but the manager stops waiting; tools must wrap their
	// writes in transactions so an abandoned attempt cannot corrupt the IB.
	Timeout time.Duration
	// Retries is the number of additional attempts after a failed one.
	Retries int
	// Backoff is the sleep before retry n, doubled each retry.
	Backoff time.Duration
}

// SetInvokePolicy configures Invoke's timeout and bounded retry.
func (m *Manager) SetInvokePolicy(p InvokePolicy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.policy = p
}

// Invoke runs a registered tool by name, recording per-tool duration and
// outcome metrics. Panics inside the tool are recovered and returned as
// errors (a crashing tool must not take down the workbench); attempts
// that fail or time out are retried per the InvokePolicy.
func (m *Manager) Invoke(name string, args map[string]string) error {
	m.mu.Lock()
	t, ok := m.tools[name]
	reg := m.metrics
	policy := m.policy
	m.mu.Unlock()
	if !ok {
		reg.Counter(MetricToolInvocations, "tool", name, "status", "error").Inc()
		return fmt.Errorf("wbmgr: no tool %q", name)
	}
	t0 := time.Now()
	var err error
	for attempt := 0; ; attempt++ {
		err = m.invokeOnce(t, args, policy.Timeout)
		if err == nil || attempt >= policy.Retries {
			break
		}
		reg.Counter(MetricInvokeRetries, "tool", name).Inc()
		if policy.Backoff > 0 {
			time.Sleep(policy.Backoff << attempt)
		}
	}
	reg.Histogram(MetricInvokeDuration, nil, "tool", name).ObserveDuration(time.Since(t0))
	status := "ok"
	if err != nil {
		status = "error"
	}
	reg.Counter(MetricToolInvocations, "tool", name, "status", status).Inc()
	return err
}

// invokeOnce runs one invocation attempt: failpoint, panic recovery,
// and — when a timeout is set — a watchdog goroutine.
func (m *Manager) invokeOnce(t Tool, args map[string]string, timeout time.Duration) error {
	if err := chaos.Inject(SiteInvoke); err != nil {
		return err
	}
	run := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("wbmgr: tool %q panicked: %v", t.Name(), r)
			}
		}()
		return t.Invoke(m, args)
	}
	if timeout <= 0 {
		return run()
	}
	done := make(chan error, 1)
	go func() { done <- run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("wbmgr: tool %q after %v: %w", t.Name(), timeout, ErrInvokeTimeout)
	}
}

// Tools lists registered tool names, sorted.
func (m *Manager) Tools() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.tools))
	for n := range m.tools {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---- Events ----

// Subscribe registers a handler for one event kind on behalf of a tool.
// It returns an unsubscribe token.
func (m *Manager) Subscribe(kind EventKind, tool string, h Handler) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subID++
	m.subs[kind] = append(m.subs[kind], subscription{m.subID, tool, h})
	return m.subID
}

// Unsubscribe removes a subscription by token.
func (m *Manager) Unsubscribe(token int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for kind, subs := range m.subs {
		for i, s := range subs {
			if s.id == token {
				m.subs[kind] = append(subs[:i], subs[i+1:]...)
				return
			}
		}
	}
}

// Publish gives e the next sequence number, records it in the event log
// and then delivers it to subscribers (excluding the originating tool —
// "the manager propagates these events to allow any tool to respond to
// the update"; the originator already knows). Each handler runs under
// its own recover: one panicking subscriber is counted and skipped, and
// every remaining subscriber still receives the event. Commit publishes
// a transaction's events; call Publish only for an event no transaction
// carries, such as a replica's applied-transaction notice.
func (m *Manager) Publish(e Event) {
	m.mu.Lock()
	m.seq++
	e.Seq = m.seq
	m.logPutLocked(e)
	if m.seq-m.logFirst >= uint64(m.logCap) {
		m.logFirst++
		m.metrics.Counter(MetricEventsDropped).Inc()
	}
	if m.wake != nil {
		close(m.wake)
		m.wake = nil
	}
	subs := append([]subscription(nil), m.subs[e.Kind]...)
	reg := m.metrics
	m.mu.Unlock()
	reg.Counter(MetricEventsPublished, "kind", string(e.Kind)).Inc()
	for _, s := range subs {
		if s.tool == e.Tool {
			continue
		}
		m.deliver(reg, s, e)
	}
}

// deliver runs one handler with the per-delivery failpoint and panic
// recovery.
func (m *Manager) deliver(reg *obs.Registry, s subscription, e Event) {
	defer func() {
		if r := recover(); r != nil {
			reg.Counter(MetricPublishPanics, "tool", s.tool).Inc()
		}
	}()
	if err := chaos.Inject(SitePublish); err != nil {
		// Injected delivery failure: this handler misses the event;
		// the fault is already counted by the chaos registry.
		return
	}
	s.handler(e)
}

// logPutLocked stores e in its ring slot, growing the ring up to logCap.
// Caller holds m.mu.
func (m *Manager) logPutLocked(e Event) {
	i := int((e.Seq - 1) % uint64(m.logCap))
	if i >= len(m.log) {
		m.log = append(m.log, make([]Event, i+1-len(m.log))...)
	}
	m.log[i] = e
}

// logSinceLocked copies the logged events with Seq > after, oldest
// first; after must lie in logFirst-1..seq. Caller holds m.mu.
func (m *Manager) logSinceLocked(after uint64) []Event {
	out := make([]Event, 0, m.seq-after)
	for s := after + 1; s <= m.seq; s++ {
		out = append(out, m.log[(s-1)%uint64(m.logCap)])
	}
	return out
}

// SetEventLogCapacity bounds the event log to the most recent n events
// (n <= 0 restores DefaultEventLogCapacity). If the log already holds
// more than n events, only the newest n survive. Sequence numbers are
// unaffected.
func (m *Manager) SetEventLogCapacity(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		n = DefaultEventLogCapacity
	}
	kept := m.logSinceLocked(m.logFirst - 1)
	if len(kept) > n {
		kept = kept[len(kept)-n:]
	}
	m.logCap = n
	m.log = nil
	m.logFirst = m.seq + 1 - uint64(len(kept))
	for _, e := range kept {
		m.logPutLocked(e)
	}
}

// EventLog returns the retained events, oldest first (a copy; at most
// the configured capacity).
func (m *Manager) EventLog() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.logSinceLocked(m.logFirst - 1)
}

// EventHead returns the highest sequence number assigned so far (0
// before the first event).
func (m *Manager) EventHead() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// EventsSince returns the logged events with Seq > after, oldest first,
// the head (the highest Seq assigned), and a channel the next Publish
// closes, for waiting when there is nothing new. A cursor the log cannot
// continue — behind the oldest retained event, or ahead of the head (a
// cursor from before a restart; sequence numbers restart at 1) — sets
// gap and gets every retained event instead.
func (m *Manager) EventsSince(after uint64) (evs []Event, head uint64, gap bool, wake <-chan struct{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if after+1 < m.logFirst || after > m.seq {
		gap, after = true, m.logFirst-1
	}
	if m.wake == nil {
		m.wake = make(chan struct{})
	}
	return m.logSinceLocked(after), m.seq, gap, m.wake
}

// ---- Transactions ----

// Txn is one transactional update scope. All changes either commit
// together — after which the queued events fire — or roll back entirely
// (paper §5.2.1: "all of the interactions with the IB are wrapped in a
// transaction; no events are generated until the mapping matrix has been
// updated").
type Txn struct {
	m     *Manager
	tool  string
	done  bool
	began time.Time

	// ctx carries the transaction's trace span (see BeginContext); span
	// is that span, ended exactly once at commit or rollback.
	ctx  context.Context
	span *obs.Span
}

// Context returns the transaction's context: the caller's request
// context with the transaction's trace span attached.
func (t *Txn) Context() context.Context { return t.ctx }

// ErrTxnActive is returned by Begin while another transaction is open.
var ErrTxnActive = errors.New("wbmgr: transaction already active")

// Begin starts a transaction on behalf of a tool. Only one transaction
// may be active at a time; Begin returns ErrTxnActive rather than
// blocking so that misuse is visible. The transaction's rollback state
// is an undo-log savepoint on the IB graph — O(changes) to abort, not
// O(graph) to begin.
func (m *Manager) Begin(tool string) (*Txn, error) {
	return m.BeginContext(context.Background(), tool)
}

// BeginContext is Begin with request-trace propagation: when ctx carries
// a span (a server request), the transaction opens a "wbmgr.txn" child
// span — ended at commit or rollback, annotated with the tool name and
// the rollback cause — and Txn.Context carries it, so the commit hook's
// durability work (WAL append/fsync) records under it.
func (m *Manager) BeginContext(ctx context.Context, tool string) (*Txn, error) {
	if err := chaos.Inject(SiteBegin); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inTxn {
		return nil, ErrTxnActive
	}
	m.inTxn = true
	m.sp = m.bb.Graph().Savepoint()
	m.queued = nil
	m.metrics.Counter(MetricTxnBegin).Inc()
	span, sctx := obs.StartSpan(ctx, "wbmgr.txn")
	span.SetAttr("txn", tool)
	return &Txn{m: m, tool: tool, began: time.Now(), ctx: sctx, span: span}, nil
}

// Do runs fn inside one transaction begun with BeginContext: an fn
// error aborts the transaction and is returned, otherwise Do returns
// Commit's error.
func (m *Manager) Do(ctx context.Context, tool string, fn func(*Txn) error) error {
	txn, err := m.BeginContext(ctx, tool)
	if err != nil {
		return err
	}
	if err := fn(txn); err != nil {
		_ = txn.Abort() // fn's error is the one to report
		return err
	}
	return txn.Commit()
}

// Blackboard gives the transaction's view of the IB (the live one; the
// snapshot exists for rollback).
func (t *Txn) Blackboard() *blackboard.Blackboard { return t.m.bb }

// Emit queues an event for delivery at commit.
func (t *Txn) Emit(kind EventKind, subject string) {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	t.m.queued = append(t.m.queued, Event{Kind: kind, Tool: t.tool, Subject: subject})
}

// errTxnFinished is returned by Commit/Abort on an already-closed Txn.
func errTxnFinished() error { return fmt.Errorf("wbmgr: transaction already finished") }

// Commit ends the transaction and delivers queued events in order. A
// fault at the commit failpoint fails the commit atomically: the whole
// transaction is rolled back (counted under cause=commit-fault) and the
// queued events are dropped, exactly as if Abort had been called.
func (t *Txn) Commit() (err error) {
	t.m.mu.Lock()
	if t.done {
		t.m.mu.Unlock()
		return errTxnFinished()
	}
	reg := t.m.metrics
	t.m.mu.Unlock()
	// The failpoint sits before the txn is sealed. An injected panic
	// must also leave the IB at its pre-transaction state, so roll back
	// before re-panicking.
	defer func() {
		if r := recover(); r != nil {
			t.rollback("commit-fault")
			panic(r)
		}
	}()
	if err := chaos.Inject(SiteCommit); err != nil {
		t.rollback("commit-fault")
		return fmt.Errorf("wbmgr: commit: %w", err)
	}
	t.m.mu.Lock()
	if t.done {
		t.m.mu.Unlock()
		return errTxnFinished()
	}
	hook := t.m.commitHook
	hookSp := t.m.sp
	t.m.mu.Unlock()
	if hook != nil {
		// Durability gate: hand the transaction's effective mutations to
		// the hook while the savepoint is still open. A refusal (e.g. a
		// failed WAL append or fsync) rolls the whole transaction back —
		// an acknowledged commit is always on disk, a failed one never is.
		if err := hook(t.ctx, t.tool, t.m.bb.Graph().ChangesSince(hookSp)); err != nil {
			t.rollback("hook-fault")
			return fmt.Errorf("wbmgr: commit hook: %w", err)
		}
	}
	t.m.mu.Lock()
	if t.done {
		t.m.mu.Unlock()
		return errTxnFinished()
	}
	t.done = true
	t.m.inTxn = false
	queued := t.m.queued
	t.m.queued = nil
	// The savepoint closes in the same lock hold that frees the slot: a
	// Begin waiting for it must not open its savepoint above this one.
	func() {
		defer t.m.mu.Unlock()
		t.m.bb.Graph().Release(t.m.sp)
	}()
	t.span.SetAttr("outcome", "commit")
	t.span.End()
	logx.For("wbmgr").Debug(t.ctx, "txn committed", "tool", t.tool, "events", len(queued))
	reg.Counter(MetricTxnCommit).Inc()
	reg.Histogram(MetricCommitDuration, nil).ObserveDuration(time.Since(t.began))
	for _, e := range queued {
		t.m.Publish(e)
	}
	return nil
}

// Abort rolls the blackboard back to its pre-transaction state and drops
// queued events. Abort is fault-tolerant by design: if its failpoint
// fires (error or panic), the rollback still happens and the injected
// fault is reported as the return value — callers can always rely on an
// aborted transaction leaving the IB untouched.
func (t *Txn) Abort() error {
	t.m.mu.Lock()
	if t.done {
		t.m.mu.Unlock()
		return errTxnFinished()
	}
	reg := t.m.metrics
	t.m.mu.Unlock()
	var injected error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if f, ok := r.(*chaos.Fault); ok {
					injected = f
					return
				}
				panic(r)
			}
		}()
		injected = chaos.Inject(SiteAbort)
	}()
	if !t.rollback("abort") {
		return errTxnFinished()
	}
	reg.Counter(MetricTxnAbort).Inc()
	return injected
}

// rollback closes the transaction and restores the pre-transaction
// triple set via the undo log. It reports false when the transaction was
// already finished (by a concurrent finisher).
func (t *Txn) rollback(cause string) bool {
	m := t.m
	m.mu.Lock()
	if t.done {
		m.mu.Unlock()
		return false
	}
	t.done = true
	m.inTxn = false
	m.queued = nil
	reg := m.metrics
	// As in Commit, the savepoint closes in the lock hold that frees
	// the slot.
	func() {
		defer m.mu.Unlock()
		m.bb.Graph().Rollback(m.sp)
	}()
	// Rollback bypasses the blackboard's mutation path; re-sync its
	// snapshot gauges so they don't go stale.
	m.bb.SyncMetrics()
	t.span.SetAttr("outcome", cause)
	t.span.End()
	logx.For("wbmgr").Debug(t.ctx, "txn rolled back", "tool", t.tool, "cause", cause)
	reg.Counter(MetricTxnRollbacks, "cause", cause).Inc()
	return true
}

// ---- Queries ----

// Query evaluates a textual basic-graph-pattern query against the IB and
// returns rows for the requested variables — the §5.2 ad hoc query
// service.
func (m *Manager) Query(text string, vars ...string) ([][]string, error) {
	reg := m.reg()
	reg.Counter(MetricQueries).Inc()
	t0 := time.Now()
	defer func() { reg.Histogram(MetricQueryDuration, nil).ObserveDuration(time.Since(t0)) }()
	q, err := rdf.ParseQuery(text)
	if err != nil {
		return nil, err
	}
	vs := make([]rdf.Var, len(vars))
	for i, v := range vars {
		vs[i] = rdf.Var(v)
	}
	rows := q.SelectVars(m.bb.Graph(), vs...)
	out := make([][]string, len(rows))
	for i, row := range rows {
		out[i] = make([]string, len(row))
		for j, term := range row {
			out[i][j] = term.Value()
		}
	}
	return out, nil
}
