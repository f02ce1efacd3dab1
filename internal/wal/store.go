package wal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/obs/logx"
	"repro/internal/rdf"
)

// Sentinel errors for the replication paths.
var (
	// ErrEpochBehind marks an attempt to move the fencing epoch backwards.
	ErrEpochBehind = errors.New("wal: fencing epoch would move backwards")
	// ErrTxnApplied marks an AppendTxnAt whose txn id is not ahead of the
	// store — the transaction is already durable here (idempotent replay).
	ErrTxnApplied = errors.New("wal: txn already applied")
)

// File names inside a store directory.
const (
	SnapshotFile = "snapshot.nt"
	LogFile      = "wal.log"
	// snapshotTmp is the temporary file atomicfile.Write renames over
	// the snapshot; one left by a crash is swept on recovery.
	snapshotTmp = SnapshotFile + ".tmp"
)

// DefaultSnapshotEvery is the auto-snapshot cadence: after this many
// committed transactions the log is folded into a fresh snapshot and
// truncated. Chosen so a busy session compacts regularly while a mostly
// read-only one never rewrites the snapshot.
const DefaultSnapshotEvery = 256

// DefaultReplBufferTxns is the default capacity of the in-memory ship
// ring: how many recent committed transactions a primary can serve to a
// lagging replica before the replica must fall back to a snapshot
// bootstrap. The ring holds encoded batches, so memory cost is
// proportional to recent mutation volume, not graph size.
const DefaultReplBufferTxns = 1024

// Options tunes a Store. The zero value is production-ready.
type Options struct {
	// SnapshotEvery is the number of committed transactions between
	// automatic snapshots (0 = DefaultSnapshotEvery, negative = never;
	// explicit SnapshotNow still works).
	SnapshotEvery int
	// ReplBufferTxns is the ship-ring capacity in transactions
	// (0 = DefaultReplBufferTxns, negative = no ring; FramesSince then
	// always demands a bootstrap unless the follower is fully caught up).
	ReplBufferTxns int
	// Metrics receives WAL instrumentation (nil = obs.Default()).
	Metrics *obs.Registry
}

// RecoveryStats reports what recovery found in a store directory.
type RecoveryStats struct {
	// SnapshotTriples is the triple count loaded from the snapshot.
	SnapshotTriples int
	// CommittedTxns and ReplayedOps count the transactions and mutations
	// replayed from the log.
	CommittedTxns int
	ReplayedOps   int
	// DiscardedTxns counts transactions present in the log without a
	// commit record (in-flight at crash time, or aborted) — their ops are
	// never applied.
	DiscardedTxns int
	// TornTail reports that trailing bytes failed framing or CRC checks
	// and were ignored (and truncated, when recovering for writing);
	// TornAtOffset is the byte offset of the first bad frame.
	TornTail     bool
	TornAtOffset int64
	// LogBytes is the usable (clean) log length.
	LogBytes int64
}

// String renders the stats as a one-line fsck-style summary.
func (s RecoveryStats) String() string {
	torn := ""
	if s.TornTail {
		torn = fmt.Sprintf(", torn tail at byte %d", s.TornAtOffset)
	}
	return fmt.Sprintf("snapshot %d triples, %d committed txns (%d ops) replayed, %d discarded%s",
		s.SnapshotTriples, s.CommittedTxns, s.ReplayedOps, s.DiscardedTxns, torn)
}

// Store is a durable home for one blackboard graph: a snapshot file plus
// an append-only log, both living in a single directory. All methods are
// safe for concurrent use; appends are serialized internally.
type Store struct {
	dir  string
	opts Options
	reg  *obs.Registry

	mu               sync.Mutex
	log              *os.File
	logSize          int64
	g                *rdf.Graph
	nextTxn          uint64
	commitsSinceSnap int
	stats            RecoveryStats
	hdr              Header
	ring             []shippedTxn // recent encoded batches, ascending txn
	replWake         chan struct{}
	closed           bool
}

// shippedTxn is one ring entry: a committed transaction's id and its
// encoded batch, byte-identical to what sits in the log file.
type shippedTxn struct {
	txn  uint64
	data []byte
}

// Open recovers the store in dir (creating it if absent) and returns a
// Store ready for appends. The recovered graph — the last committed
// state — is available via Graph(). Torn log tails are truncated so the
// next append lands on a clean boundary.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Metrics == nil {
		opts.Metrics = obs.Default()
	}
	reg := opts.Metrics
	describeMetrics(reg)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := chaos.Inject(SiteRecover); err != nil {
		return nil, fmt.Errorf("wal: recover: %w", err)
	}
	g, stats, maxTxn, err := recoverDir(dir, reg)
	if err != nil {
		return nil, err
	}
	hdr, err := ReadHeader(dir)
	if err != nil {
		return nil, err
	}
	// The txn id space continues from whichever mark is higher: the log's
	// highest id, or the header's high-water mark from the last snapshot
	// (snapshots truncate the log, so the log alone under-counts).
	if hdr.LastTxn > maxTxn {
		maxTxn = hdr.LastTxn
	}
	logPath := filepath.Join(dir, LogFile)
	if stats.TornTail {
		if err := os.Truncate(logPath, stats.TornAtOffset); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		reg.Counter(MetricTornTails).Inc()
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	reg.Counter(MetricRecoveredTxns, "status", "committed").Add(int64(stats.CommittedTxns))
	reg.Counter(MetricRecoveredTxns, "status", "discarded").Add(int64(stats.DiscardedTxns))
	reg.Gauge(MetricSizeBytes).Set(float64(stats.LogBytes))
	return &Store{
		dir:      dir,
		opts:     opts,
		reg:      reg,
		log:      f,
		logSize:  stats.LogBytes,
		g:        g,
		nextTxn:  maxTxn,
		stats:    stats,
		hdr:      hdr,
		replWake: make(chan struct{}),
	}, nil
}

func describeMetrics(reg *obs.Registry) {
	reg.Describe(MetricAppends, "WAL records appended, by kind.")
	reg.Describe(MetricFsync, "WAL fsync latency.")
	reg.Describe(MetricBatches, "WAL batch writes (one per committed transaction).")
	reg.Describe(MetricSnapshots, "WAL snapshots taken.")
	reg.Describe(MetricRecoveredTxns, "Transactions seen at recovery, by status.")
	reg.Describe(MetricTornTails, "Torn WAL tails truncated at recovery.")
	reg.Describe(MetricSizeBytes, "Current WAL file size in bytes.")
}

// Recover performs a read-only recovery of dir: it loads the snapshot,
// replays committed transactions, and reports what it found — without
// truncating torn tails or opening the log for writing. `workbench
// fsck` is built on this.
func Recover(dir string) (*rdf.Graph, RecoveryStats, error) {
	g, stats, _, err := recoverDir(dir, obs.NewRegistry())
	return g, stats, err
}

// recoverDir loads snapshot + log from dir. It returns the recovered
// graph, stats, and the highest transaction id seen in the log.
func recoverDir(dir string, reg *obs.Registry) (*rdf.Graph, RecoveryStats, uint64, error) {
	var stats RecoveryStats
	// A leftover temp snapshot means a crash mid-snapshot: the real
	// snapshot plus the intact log still hold the full state.
	os.Remove(filepath.Join(dir, snapshotTmp))

	g := rdf.NewGraph()
	if f, err := os.Open(filepath.Join(dir, SnapshotFile)); err == nil {
		loaded, rerr := rdf.ReadNTriples(f)
		f.Close()
		if rerr != nil {
			return nil, stats, 0, fmt.Errorf("wal: snapshot: %w", rerr)
		}
		g = loaded
		stats.SnapshotTriples = g.Len()
	} else if !os.IsNotExist(err) {
		return nil, stats, 0, fmt.Errorf("wal: %w", err)
	}

	data, err := os.ReadFile(filepath.Join(dir, LogFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, stats, 0, fmt.Errorf("wal: %w", err)
	}

	// Replay: buffer each transaction's ops, apply them only at its
	// commit record, in log order. Ops journal only effective mutations,
	// so re-applying a transaction already folded into the snapshot
	// (crash between snapshot rename and log truncation) is a no-op.
	pending := map[uint64][]rdf.ChangeOp{}
	var maxTxn uint64
	clean, torn, err := scanFrames(data, func(r Record) error {
		if r.Txn > maxTxn {
			maxTxn = r.Txn
		}
		switch r.Kind {
		case KindBegin:
			pending[r.Txn] = nil
		case KindAdd, KindDel:
			t, perr := rdf.ParseTriple(r.Triple)
			if perr != nil {
				return fmt.Errorf("wal: replay txn %d: %w", r.Txn, perr)
			}
			pending[r.Txn] = append(pending[r.Txn], rdf.ChangeOp{Add: r.Kind == KindAdd, T: t})
		case KindCommit:
			for _, op := range pending[r.Txn] {
				if op.Add {
					g.Add(op.T)
				} else {
					g.Remove(op.T)
				}
				stats.ReplayedOps++
			}
			delete(pending, r.Txn)
			stats.CommittedTxns++
		case KindAbort:
			delete(pending, r.Txn)
			stats.DiscardedTxns++
		}
		return nil
	})
	if err != nil {
		return nil, stats, 0, err
	}
	stats.DiscardedTxns += len(pending)
	stats.TornTail = torn
	stats.TornAtOffset = clean
	stats.LogBytes = clean
	return g, stats, maxTxn, nil
}

// Graph returns the recovered (and thereafter live) graph. The caller —
// typically blackboard.NewFromGraph — owns mutations; the store only
// reads it during snapshots.
func (s *Store) Graph() *rdf.Graph { return s.g }

// SetGraph rebinds the graph the store snapshots from. A workspace that
// idle-closed its store (folding the log into a snapshot) reopens it
// later and points the fresh store at the still-live blackboard graph,
// instead of adopting the store's recovered copy — the contents are
// equal (Close folded every committed txn), but object identity must
// stay with the blackboard so feeds and match sessions keep working.
func (s *Store) SetGraph(g *rdf.Graph) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.g = g
}

// Stats returns what recovery found when the store was opened.
func (s *Store) Stats() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// AppendTxn durably logs one committed transaction: the batch (begin,
// ops, commit) is framed into a single write followed by an fsync. It
// returns only after the transaction is durable — wire it into
// wbmgr.SetCommitHook so a failed append rolls the transaction back. An
// empty ops slice is logged too (the commit still advances the txn id),
// keeping the hook contract trivial for callers.
func (s *Store) AppendTxn(ops []rdf.ChangeOp) error {
	return s.AppendTxnContext(context.Background(), ops)
}

// AppendTxnContext is AppendTxn with request-trace propagation: when
// ctx carries a span (the wbmgr transaction span on server requests),
// the append and its fsync record as "wal.append"/"wal.fsync" child
// spans, so a trace attributes durability latency separately from
// matching and merging.
func (s *Store) AppendTxnContext(ctx context.Context, ops []rdf.ChangeOp) (err error) {
	sp, ctx := obs.StartSpan(ctx, "wal.append")
	sp.SetAttr("ops", strconv.Itoa(len(ops)))
	defer func() {
		if err != nil {
			sp.SetError(err)
			logx.For("wal").Warn(ctx, "append failed", "err", err)
		}
		sp.End()
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("wal: store closed")
	}
	return s.appendTxnLocked(ctx, s.nextTxn+1, ops)
}

// AppendTxnAt durably logs one transaction under an explicit id — the
// replication apply path, where a replica must preserve the primary's
// txn numbering so replication cursors survive restarts and a promoted
// replica continues the same id space. txn must be ahead of everything
// already in the store; a stale id returns ErrTxnApplied (wrapped), the
// idempotent-replay signal.
func (s *Store) AppendTxnAt(ctx context.Context, txn uint64, ops []rdf.ChangeOp) (err error) {
	sp, ctx := obs.StartSpan(ctx, "wal.append")
	sp.SetAttr("ops", strconv.Itoa(len(ops)))
	sp.SetAttr("txn", strconv.FormatUint(txn, 10))
	defer func() {
		if err != nil {
			sp.SetError(err)
			logx.For("wal").Warn(ctx, "append-at failed", "txn", txn, "err", err)
		}
		sp.End()
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("wal: store closed")
	}
	if txn <= s.nextTxn {
		return fmt.Errorf("wal: txn %d not ahead of %d: %w", txn, s.nextTxn, ErrTxnApplied)
	}
	return s.appendTxnLocked(ctx, txn, ops)
}

// appendTxnLocked frames, writes, and fsyncs one transaction batch,
// then advances the txn counter, feeds the ship ring, and runs the
// auto-snapshot cadence. Callers hold s.mu and have validated txn.
func (s *Store) appendTxnLocked(ctx context.Context, txn uint64, ops []rdf.ChangeOp) error {
	buf := EncodeTxn(txn, ops)
	if err := chaos.Inject(SiteAppend); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	n, err := s.log.Write(buf)
	if err != nil {
		// A short write leaves a torn tail in the file; truncate back so
		// the in-process log stays frame-aligned (recovery would discard
		// the tail anyway).
		if n > 0 {
			s.log.Truncate(s.logSize)
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	fsp, _ := obs.StartSpan(ctx, "wal.fsync")
	err = s.fsyncLocked()
	fsp.SetError(err)
	fsp.End()
	if err != nil {
		// The bytes may or may not have reached disk. The commit is going
		// to fail and roll back, so the record must not survive either:
		// truncate it away and re-sync best-effort.
		s.log.Truncate(s.logSize)
		s.log.Sync()
		return fmt.Errorf("wal: fsync: %w", err)
	}
	s.logSize += int64(len(buf))
	s.nextTxn = txn
	s.ringPushLocked(txn, buf)
	countTxnRecords(s.reg, ops)
	s.reg.Counter(MetricBatches).Inc()
	s.reg.Gauge(MetricSizeBytes).Set(float64(s.logSize))

	if every := s.snapshotEvery(); every > 0 {
		s.commitsSinceSnap++
		if s.commitsSinceSnap >= every {
			// The transaction is already durable in the log; a failed
			// snapshot must not fail the commit. Leave the log as is and
			// retry at the next commit.
			if err := s.snapshotLocked(); err != nil {
				s.commitsSinceSnap = every // retry next commit
			}
		}
	}
	return nil
}

func (s *Store) snapshotEvery() int {
	switch {
	case s.opts.SnapshotEvery > 0:
		return s.opts.SnapshotEvery
	case s.opts.SnapshotEvery < 0:
		return 0
	default:
		return DefaultSnapshotEvery
	}
}

// fsyncLocked syncs the log file through the fsync failpoint, timing the
// call.
func (s *Store) fsyncLocked() error {
	if err := chaos.Inject(SiteFsync); err != nil {
		return err
	}
	t0 := time.Now()
	err := s.log.Sync()
	s.reg.Histogram(MetricFsync, obs.LatencyBuckets).ObserveDuration(time.Since(t0))
	return err
}

// SnapshotNow folds the current graph into a fresh snapshot and
// truncates the log. Safe to call at any time; concurrent appends wait.
func (s *Store) SnapshotNow() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("wal: store closed")
	}
	return s.snapshotLocked()
}

// snapshotLocked writes the snapshot crash-safely with atomicfile.Write
// (temp file, failpoint, fsync, atomic rename, directory fsync), then
// truncates the log. A
// crash at any point leaves a recoverable directory — before the rename
// the old snapshot + full log win; between rename and truncation the new
// snapshot plus an idempotent replay win.
func (s *Store) snapshotLocked() error {
	err := atomicfile.Write(filepath.Join(s.dir, SnapshotFile), func(w io.Writer) error {
		if err := rdf.WriteNTriples(w, s.g); err != nil {
			return err
		}
		return chaos.Inject(SiteSnapshot)
	})
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	// Persist the txn high-water mark before the log (its only other
	// home) is truncated. Ordered this way a crash in between is safe:
	// snapshot + intact log still recover, and Open takes the max of the
	// two marks.
	if h := (Header{Epoch: s.hdr.Epoch, Sealed: s.hdr.Sealed, LastTxn: s.nextTxn}); h != s.hdr {
		if err := writeHeader(s.dir, h); err != nil {
			return err
		}
		s.hdr = h
	}
	if err := s.log.Truncate(0); err != nil {
		return fmt.Errorf("wal: snapshot: truncating log: %w", err)
	}
	s.log.Sync()
	s.logSize = 0
	s.commitsSinceSnap = 0
	s.reg.Counter(MetricSnapshots).Inc()
	s.reg.Gauge(MetricSizeBytes).Set(0)
	return nil
}

// LogSize returns the current clean log length in bytes.
func (s *Store) LogSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logSize
}

// LastTxn returns the highest committed transaction id in the store.
func (s *Store) LastTxn() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextTxn
}

// replBufferTxns resolves the configured ship-ring capacity.
func (s *Store) replBufferTxns() int {
	switch {
	case s.opts.ReplBufferTxns > 0:
		return s.opts.ReplBufferTxns
	case s.opts.ReplBufferTxns < 0:
		return 0
	default:
		return DefaultReplBufferTxns
	}
}

// ringPushLocked records a freshly durable batch in the ship ring and
// wakes any long-polling followers. The ring deliberately survives log
// truncation (snapshots): a follower slightly behind a compaction can
// still be served frames instead of being forced into a full bootstrap.
func (s *Store) ringPushLocked(txn uint64, data []byte) {
	limit := s.replBufferTxns()
	if limit > 0 {
		s.ring = append(s.ring, shippedTxn{txn: txn, data: data})
		if excess := len(s.ring) - limit; excess > 0 {
			s.ring = append([]shippedTxn(nil), s.ring[excess:]...)
		}
	}
	close(s.replWake)
	s.replWake = make(chan struct{})
}

// FramesSince returns the encoded batches of up to maxTxns committed
// transactions with id > after, concatenated in log order (decodable
// with DecodeTxnFrames), plus the store's last txn id. ok=false means
// the ship ring no longer reaches back to after+1 — the follower must
// bootstrap from a snapshot. A follower at or ahead of last gets an
// empty ok=true (ahead is the caller's anomaly to surface). The ring is
// rebuilt empty at Open, so a follower resuming across a primary
// restart re-bootstraps by design.
func (s *Store) FramesSince(after uint64, maxTxns int) (data []byte, n int, last uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, n, last, ok, _ = s.framesSinceLocked(after, maxTxns)
	return data, n, last, ok
}

func (s *Store) framesSinceLocked(after uint64, maxTxns int) (data []byte, n int, last uint64, ok bool, wake <-chan struct{}) {
	last = s.nextTxn
	wake = s.replWake
	if after >= last {
		return nil, 0, last, true, wake
	}
	if len(s.ring) == 0 || s.ring[0].txn > after+1 {
		return nil, 0, last, false, wake
	}
	if maxTxns <= 0 {
		maxTxns = DefaultReplBufferTxns
	}
	for _, e := range s.ring {
		if e.txn <= after {
			continue
		}
		if n >= maxTxns {
			break
		}
		data = append(data, e.data...)
		n++
	}
	return data, n, last, true, wake
}

// WaitFrames is FramesSince with a long-poll: when the follower is
// caught up it blocks until a new transaction commits, the timeout
// elapses, or ctx is done (the latter two return empty, ok=true). A
// bootstrap-needed condition returns immediately.
func (s *Store) WaitFrames(ctx context.Context, after uint64, timeout time.Duration, maxTxns int) (data []byte, n int, last uint64, ok bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		data, n, last, ok, wake := s.framesSinceLocked(after, maxTxns)
		s.mu.Unlock()
		if !ok || n > 0 {
			return data, n, last, ok
		}
		select {
		case <-wake:
		case <-deadline.C:
			return nil, 0, last, true
		case <-ctx.Done():
			return nil, 0, last, true
		}
	}
}

// Close snapshots (folding the log away so the next Open starts clean)
// and releases the log file. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.logSize > 0 {
		err = s.snapshotLocked()
	}
	s.closed = true
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}
