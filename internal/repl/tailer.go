package repl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/obs/logx"
	"repro/internal/rdf"
)

// Applier is the replica-side sink the Tailer feeds. internal/server
// implements it over the follower blackboard + WAL; tests implement it
// over a bare graph.
type Applier interface {
	// LastApplied returns the replication cursor: the highest primary
	// txn id already durable locally.
	LastApplied() uint64
	// ApplyTxn replays one shipped transaction. It must be idempotent:
	// txn ids at or below LastApplied() are silent no-ops, so a retried
	// batch never double-applies.
	ApplyTxn(txn uint64, ops []rdf.ChangeOp) error
	// Bootstrap installs a full primary snapshot taken at txn,
	// converging the local state by diff.
	Bootstrap(g *rdf.Graph, txn uint64) error
	// ObserveEpoch reports the primary's epoch from each response. An
	// error is fatal to the tail: the upstream is no longer a legitimate
	// primary (deposed), or the local node has been promoted past it.
	ObserveEpoch(epoch uint64) error
}

// Config tunes a Tailer. Primary and Apply are required.
type Config struct {
	Primary string
	Apply   Applier
	// Workspace scopes the tail to one workspace partition on the
	// primary ("" or "default" = the node-level paths, which a
	// pre-workspace primary also serves).
	Workspace string
	// Epoch supplies the local fencing-epoch claim (nil = claim nothing).
	Epoch func() uint64
	// Metrics receives the repl gauges/counters (nil = obs.Default()).
	Metrics *obs.Registry
	// Log receives tail lifecycle events (nil = logx.For("repl")).
	Log *logx.Logger
	// PollTimeout is the server-side long-poll window per fetch
	// (0 = 20s).
	PollTimeout time.Duration
	// Backoff is the pause after a failed poll (0 = 500ms).
	Backoff time.Duration
}

// fatalError wraps an error that must stop the tail loop permanently
// (deposed primary, or an injected chaos fault standing in for a
// replica-side crash).
type fatalError struct{ err error }

func (e fatalError) Error() string { return "repl: fatal: " + e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

// Tailer is the replica-side replication loop: long-poll the primary's
// log, apply frames in order, bootstrap from a snapshot when told to,
// and keep the lag gauges and health state current.
type Tailer struct {
	cfg     Config
	fetcher *Fetcher
	reg     *obs.Registry
	log     *logx.Logger

	mu          sync.Mutex
	lastContact time.Time
	primaryLast uint64
	lastErr     error
	fatal       bool
}

// NewTailer wires a Tailer; call Run to start tailing.
func NewTailer(cfg Config) *Tailer {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	if cfg.Log == nil {
		cfg.Log = logx.For("repl")
	}
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = 20 * time.Second
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	DescribeMetrics(cfg.Metrics)
	return &Tailer{
		cfg:     cfg,
		fetcher: NewFetcher(cfg.Primary, cfg.Epoch).ForWorkspace(cfg.Workspace),
		reg:     cfg.Metrics,
		log:     cfg.Log,
	}
}

// Fetcher exposes the underlying fetcher (the promote path reuses it to
// fence the old primary).
func (t *Tailer) Fetcher() *Fetcher { return t.fetcher }

// Run tails the primary until ctx is done or a fatal condition stops
// replication for good (a deposed upstream, or a chaos fault simulating
// a replica crash). Transient errors back off and retry.
func (t *Tailer) Run(ctx context.Context) {
	for ctx.Err() == nil {
		err := t.step(ctx)
		if err == nil {
			continue
		}
		if ctx.Err() != nil {
			return
		}
		t.reg.Counter(MetricPollErrors).Inc()
		t.noteError(err)
		var fe fatalError
		if errors.As(err, &fe) {
			t.log.Error(ctx, "replication stopped", "primary", t.fetcher.BaseURL(), "err", err)
			return
		}
		t.log.Warn(ctx, "replication poll failed", "primary", t.fetcher.BaseURL(), "err", err)
		select {
		case <-time.After(t.cfg.Backoff):
		case <-ctx.Done():
			return
		}
	}
}

// step performs one poll-and-apply round. A chaos fault panic from the
// apply/bootstrap sites is recovered into a fatal error — the in-process
// stand-in for kill -9 of the replica's replication machinery; any other
// panic is re-raised.
func (t *Tailer) step(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(*chaos.Fault)
			if !ok {
				panic(r)
			}
			err = fatalError{fmt.Errorf("chaos fault: %v", f)}
		}
	}()
	after := t.cfg.Apply.LastApplied()
	batch, err := t.fetcher.FetchLog(ctx, after, t.cfg.PollTimeout)
	if errors.Is(err, ErrSnapshotNeeded) {
		return t.bootstrap(ctx)
	}
	if err != nil {
		return err
	}
	if err := t.observeEpoch(batch.Epoch); err != nil {
		return err
	}
	// The primary answered: that is contact, whatever the apply makes
	// of the batch (an apply error still lands in noteError).
	t.noteContact(batch.Last)
	defer t.updateLagGauges()
	for _, fr := range batch.Frames {
		if err := chaos.Inject(SiteApply); err != nil {
			return fmt.Errorf("repl: apply: %w", err)
		}
		if err := t.cfg.Apply.ApplyTxn(fr.Txn, fr.Ops); err != nil {
			return fmt.Errorf("repl: apply txn %d: %w", fr.Txn, err)
		}
		t.reg.Counter(MetricAppliedTxns).Inc()
	}
	return nil
}

// bootstrap performs the snapshot path: fetch the full graph, install
// it, and let the next poll resume from the snapshot's txn.
func (t *Tailer) bootstrap(ctx context.Context) error {
	g, txn, epoch, err := t.fetcher.FetchSnapshot(ctx)
	if err != nil {
		return err
	}
	if err := t.observeEpoch(epoch); err != nil {
		return err
	}
	t.noteContact(txn)
	defer t.updateLagGauges()
	if err := chaos.Inject(SiteBootstrap); err != nil {
		return fmt.Errorf("repl: bootstrap: %w", err)
	}
	if err := t.cfg.Apply.Bootstrap(g, txn); err != nil {
		return fmt.Errorf("repl: bootstrap at txn %d: %w", txn, err)
	}
	t.reg.Counter(MetricBootstraps).Inc()
	t.log.Info(ctx, "bootstrapped from snapshot", "primary", t.fetcher.BaseURL(), "txn", txn)
	return nil
}

// observeEpoch forwards the primary's epoch to the applier; a rejection
// (deposed upstream) is fatal.
func (t *Tailer) observeEpoch(epoch uint64) error {
	if err := t.cfg.Apply.ObserveEpoch(epoch); err != nil {
		return fatalError{err}
	}
	return nil
}

// noteContact records an answer from the primary, clearing the last
// error, and refreshes the lag gauges.
func (t *Tailer) noteContact(primaryLast uint64) {
	t.mu.Lock()
	t.lastContact = time.Now()
	t.primaryLast = primaryLast
	t.lastErr = nil
	t.mu.Unlock()
	t.updateLagGauges()
}

// noteError records a failed round (keeping the last contact time so
// lag_seconds keeps growing from the last success).
func (t *Tailer) noteError(err error) {
	t.mu.Lock()
	t.lastErr = err
	var fe fatalError
	if errors.As(err, &fe) {
		t.fatal = true
	}
	t.mu.Unlock()
	t.updateLagGauges()
}

// updateLagGauges refreshes repl_lag_txns / repl_lag_seconds.
func (t *Tailer) updateLagGauges() {
	t.mu.Lock()
	primaryLast := t.primaryLast
	contact := t.lastContact
	t.mu.Unlock()
	applied := t.cfg.Apply.LastApplied()
	var lag uint64
	if primaryLast > applied {
		lag = primaryLast - applied
	}
	t.reg.Gauge(MetricLagTxns).Set(float64(lag))
	if !contact.IsZero() {
		t.reg.Gauge(MetricLagSeconds).Set(time.Since(contact).Seconds())
	}
}

// Status reports the tail's view: the primary's last known txn, the
// time of the last successful round, and the last error (nil when the
// most recent round succeeded).
func (t *Tailer) Status() (primaryLast uint64, lastContact time.Time, lastErr error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.primaryLast, t.lastContact, t.lastErr
}

// Healthy reports whether replication is live: no standing error, not
// fatally stopped, and a successful round within a staleness window
// derived from the poll cadence.
func (t *Tailer) Healthy() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fatal || t.lastErr != nil || t.lastContact.IsZero() {
		return false
	}
	return time.Since(t.lastContact) < 2*t.cfg.PollTimeout+2*time.Second
}

// LagSeconds returns seconds since the last successful round (-1 before
// any contact).
func (t *Tailer) LagSeconds() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lastContact.IsZero() {
		return -1
	}
	return time.Since(t.lastContact).Seconds()
}
