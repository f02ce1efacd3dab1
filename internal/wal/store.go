package wal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
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

	errClosed = errors.New("wal: store closed")
)

// File names inside a store directory.
const (
	SnapshotFile = "snapshot.nt"
	LogFile      = "wal.log"
	// PrevLogFile is the previous log segment: the log the last snapshot
	// folded, kept so a follower behind that snapshot is still served
	// frames. Recovery never reads it; the next rotation replaces it.
	PrevLogFile = "wal.prev"
	// snapshotTmp is the temporary file atomicfile.Write renames over
	// the snapshot; one left by a crash is swept on recovery.
	snapshotTmp = SnapshotFile + ".tmp"
)

// DefaultSnapshotEvery is the auto-snapshot cadence: after this many
// committed transactions the log is folded into a fresh snapshot and
// rotated. Chosen so a busy session compacts regularly while a mostly
// read-only one never rewrites the snapshot.
const DefaultSnapshotEvery = 256

// Options tunes a Store. The zero value is production-ready.
type Options struct {
	// SnapshotEvery is the number of committed transactions between
	// automatic snapshots (0 = DefaultSnapshotEvery, negative = never;
	// explicit SnapshotNow still works).
	SnapshotEvery int
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
// an append-only log, both living in a single directory, and the log the
// last snapshot folded, kept for followers. All methods are safe for
// concurrent use; appends are serialized internally.
type Store struct {
	dir  string
	opts Options
	reg  *obs.Registry

	mu   sync.Mutex
	live segment // wal.log, open for appends and reads
	prev segment // wal.prev, open for reads (f nil when absent)
	// logSize is the durable length of the live log. unacked is set
	// while an append is between its write and its return: a panic
	// there (the server and the replica's tail loop both survive one)
	// leaves bytes past logSize that the next append or rotation cuts.
	logSize          int64
	unacked          bool
	g                *rdf.Graph
	nextTxn          uint64
	commitsSinceSnap int
	stats            RecoveryStats
	hdr              Header
	replWake         chan struct{} // closed and replaced at each commit
	closed           bool
}

// segment is one log file and the spans of the committed transactions
// it holds, ascending by txn id.
type segment struct {
	f     *os.File
	spans []txnSpan
}

// txnSpan locates one committed transaction's batch in a segment: its
// frames, begin record to commit record, fill the bytes [off, end).
type txnSpan struct {
	txn      uint64
	off, end int64
}

// spanIndexer builds a segment's spans from its frames in file order. A
// transaction is indexed at its commit record when its frames ran
// contiguously from its begin record, as the writer lays every batch
// down. A committed transaction that cannot be served as one byte range,
// or whose id does not ascend, drops every span before it, so a follower
// behind it bootstraps instead of skipping it.
type spanIndexer struct {
	spans []txnSpan
	open  txnSpan
	inTxn bool
}

func (x *spanIndexer) add(f frame) {
	switch {
	case f.kind == KindBegin:
		x.open, x.inTxn = txnSpan{txn: f.txn, off: f.off}, true
		return
	case x.inTxn && f.txn == x.open.txn && (f.kind == KindAdd || f.kind == KindDel):
		return
	case x.inTxn && f.txn == x.open.txn && f.kind == KindCommit:
		if n := len(x.spans); n > 0 && x.spans[n-1].txn >= f.txn {
			x.spans = x.spans[:0]
		}
		x.open.end = f.end
		x.spans = append(x.spans, x.open)
	case f.kind == KindCommit:
		x.spans = x.spans[:0]
	}
	x.inTxn = false
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
	g, stats, maxTxn, spans, err := recoverDir(dir, reg)
	if err != nil {
		return nil, err
	}
	hdr, err := ReadHeader(dir)
	if err != nil {
		return nil, err
	}
	// The txn id space continues from whichever mark is higher: the log's
	// highest id, or the header's high-water mark from the last snapshot
	// (recovery reads only the live log, which a snapshot rotates away).
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
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	prev, err := openPrev(dir, hdr.LastTxn, spans)
	if err != nil {
		f.Close()
		return nil, err
	}
	reg.Counter(MetricRecoveredTxns, "status", "committed").Add(int64(stats.CommittedTxns))
	reg.Counter(MetricRecoveredTxns, "status", "discarded").Add(int64(stats.DiscardedTxns))
	reg.Gauge(MetricSizeBytes).Set(float64(stats.LogBytes))
	return &Store{
		dir:      dir,
		opts:     opts,
		reg:      reg,
		live:     segment{f: f, spans: spans},
		prev:     prev,
		logSize:  stats.LogBytes,
		g:        g,
		nextTxn:  maxTxn,
		stats:    stats,
		hdr:      hdr,
		replWake: make(chan struct{}),
	}, nil
}

// openPrev opens the previous segment for reading and indexes it in one
// pass. It serves nothing (and stays closed) unless it frames cleanly
// and every txn in it precedes the live log's and falls under the
// header's mark, the snapshot that folded it: otherwise transactions
// between its last good frame and the live log could be missing, and a
// follower must bootstrap rather than skip them.
func openPrev(dir string, mark uint64, live []txnSpan) (segment, error) {
	path := filepath.Join(dir, PrevLogFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return segment{}, nil
	}
	if err != nil {
		return segment{}, fmt.Errorf("wal: %w", err)
	}
	var x spanIndexer
	_, torn, _ := walkFrames(data, func(fr frame) error {
		x.add(fr)
		return nil
	})
	n := len(x.spans)
	if torn || n == 0 || x.spans[n-1].txn > mark || (len(live) > 0 && x.spans[n-1].txn >= live[0].txn) {
		return segment{}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return segment{}, fmt.Errorf("wal: %w", err)
	}
	return segment{f: f, spans: x.spans}, nil
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
	g, stats, _, _, err := recoverDir(dir, obs.NewRegistry())
	return g, stats, err
}

// recoverDir loads snapshot + log from dir. It returns the recovered
// graph, stats, the highest transaction id seen in the log, and the
// spans of the log's committed transactions.
func recoverDir(dir string, reg *obs.Registry) (*rdf.Graph, RecoveryStats, uint64, []txnSpan, error) {
	var stats RecoveryStats
	// A leftover temp snapshot means a crash mid-snapshot: the real
	// snapshot plus the intact log still hold the full state.
	os.Remove(filepath.Join(dir, snapshotTmp))

	g := rdf.NewGraph()
	if f, err := os.Open(filepath.Join(dir, SnapshotFile)); err == nil {
		loaded, rerr := rdf.ReadNTriples(f)
		f.Close()
		if rerr != nil {
			return nil, stats, 0, nil, fmt.Errorf("wal: snapshot: %w", rerr)
		}
		g = loaded
		stats.SnapshotTriples = g.Len()
	} else if !os.IsNotExist(err) {
		return nil, stats, 0, nil, fmt.Errorf("wal: %w", err)
	}

	data, err := os.ReadFile(filepath.Join(dir, LogFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, stats, 0, nil, fmt.Errorf("wal: %w", err)
	}

	// Replay: buffer each transaction's ops, apply them only at its
	// commit record, in log order. Ops journal only effective mutations,
	// so re-applying a transaction already folded into the snapshot
	// (crash between the snapshot's rename and the log's rotation) is a
	// no-op. The same scan indexes the committed transactions' spans.
	pending := map[uint64][]rdf.ChangeOp{}
	var maxTxn uint64
	var index spanIndexer
	clean, torn, err := walkFrames(data, func(fr frame) error {
		index.add(fr)
		if fr.txn > maxTxn {
			maxTxn = fr.txn
		}
		switch fr.kind {
		case KindBegin:
			pending[fr.txn] = nil
		case KindAdd, KindDel:
			t, perr := rdf.ParseTriple(string(fr.triple))
			if perr != nil {
				return fmt.Errorf("wal: replay txn %d: %w", fr.txn, perr)
			}
			pending[fr.txn] = append(pending[fr.txn], rdf.ChangeOp{Add: fr.kind == KindAdd, T: t})
		case KindCommit:
			for _, op := range pending[fr.txn] {
				if op.Add {
					g.Add(op.T)
				} else {
					g.Remove(op.T)
				}
				stats.ReplayedOps++
			}
			delete(pending, fr.txn)
			stats.CommittedTxns++
		case KindAbort:
			delete(pending, fr.txn)
			stats.DiscardedTxns++
		}
		return nil
	})
	if err != nil {
		return nil, stats, 0, nil, err
	}
	stats.DiscardedTxns += len(pending)
	stats.TornTail = torn
	stats.TornAtOffset = clean
	stats.LogBytes = clean
	return g, stats, maxTxn, index.spans, nil
}

// Graph returns the recovered (and thereafter live) graph. The caller —
// typically blackboard.NewFromGraph — owns mutations; the store only
// reads it during snapshots.
func (s *Store) Graph() *rdf.Graph { return s.g }

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
		return errClosed
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
		return errClosed
	}
	if txn <= s.nextTxn {
		return fmt.Errorf("wal: txn %d not ahead of %d: %w", txn, s.nextTxn, ErrTxnApplied)
	}
	return s.appendTxnLocked(ctx, txn, ops)
}

// appendTxnLocked frames, writes, and fsyncs one transaction batch,
// then advances the txn counter, indexes the batch, wakes long-polling
// followers, and runs the auto-snapshot cadence. Callers hold s.mu and
// have validated txn.
func (s *Store) appendTxnLocked(ctx context.Context, txn uint64, ops []rdf.ChangeOp) error {
	buf := EncodeTxn(txn, ops)
	if err := chaos.Inject(SiteAppend); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := s.cutLocked(); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	s.unacked = true
	if _, err := s.live.f.Write(buf); err != nil {
		// A short write leaves a torn tail in the file; cut it so the
		// in-process log stays frame-aligned (recovery would discard
		// the tail anyway). A cut that fails leaves unacked set, and the
		// next append or rotation retries it.
		_ = s.cutLocked()
		return fmt.Errorf("wal: append: %w", err)
	}
	fsp, _ := obs.StartSpan(ctx, "wal.fsync")
	err := s.fsyncLocked()
	fsp.SetError(err)
	fsp.End()
	if err != nil {
		// The bytes may or may not have reached disk. The commit is going
		// to fail and roll back, so the record must not survive either:
		// cut it away (or, if the cut fails, at the next append).
		_ = s.cutLocked()
		return fmt.Errorf("wal: fsync: %w", err)
	}
	s.unacked = false
	span := txnSpan{txn: txn, off: s.logSize, end: s.logSize + int64(len(buf))}
	s.live.spans = append(s.live.spans, span)
	s.logSize = span.end
	s.nextTxn = txn
	close(s.replWake)
	s.replWake = make(chan struct{})
	countTxnRecords(s.reg, ops)
	s.reg.Counter(MetricBatches).Inc()
	s.reg.Gauge(MetricSizeBytes).Set(float64(s.logSize))

	if every := s.snapshotEvery(); every > 0 {
		s.commitsSinceSnap++
		if s.commitsSinceSnap >= every && s.autoSnapshotLocked(ctx) != nil {
			s.commitsSinceSnap = every // retry next commit
		}
	}
	return nil
}

// autoSnapshotLocked is snapshotLocked for the commit cadence. Its
// commit is already durable, so a failed or panicking snapshot (a
// failpoint at wal.snapshot or wal.rotate) returns an error, leaves the
// log as it is and the commit standing, and the next commit retries.
// It records a "wal.snapshot" span under the commit's "wal.append",
// carrying the triple count and any error.
func (s *Store) autoSnapshotLocked(ctx context.Context) (err error) {
	sp, _ := obs.StartSpan(ctx, "wal.snapshot")
	if sp.Recording() {
		sp.SetAttr("triples", strconv.Itoa(s.g.Len()))
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("wal: snapshot: panic: %v", r)
		}
		sp.SetError(err)
		sp.End()
	}()
	return s.snapshotLocked()
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
	err := s.live.f.Sync()
	s.reg.Histogram(MetricFsync, obs.LatencyBuckets).ObserveDuration(time.Since(t0))
	return err
}

// cutLocked truncates the live log back to logSize, durably, when an
// append that never returned may have left bytes past it. Without the
// cut, the next batch would land after a rolled-back one, which the next
// Open replays and a later failed append's truncation tears.
func (s *Store) cutLocked() error {
	if !s.unacked {
		return nil
	}
	if err := s.live.f.Truncate(s.logSize); err != nil {
		return err
	}
	if err := s.live.f.Sync(); err != nil {
		return err
	}
	s.unacked = false
	return nil
}

// SnapshotNow folds the current graph into a fresh snapshot and
// rotates the log. Safe to call at any time; concurrent appends wait.
func (s *Store) SnapshotNow() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	return s.snapshotLocked()
}

// snapshotLocked writes the snapshot crash-safely with atomicfile.Write
// (temp file, failpoint, fsync, atomic rename, directory fsync), then
// rotates the log. A crash at any point leaves a recoverable directory —
// before the rename the old snapshot + full log win; between the
// snapshot's rename and the log's rotation the new snapshot plus an
// idempotent replay win; after it the new snapshot and an empty (or
// absent) live log do.
func (s *Store) snapshotLocked() error {
	if err := s.cutLocked(); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
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
	// home recovery reads) rotates away. Ordered this way a crash in
	// between is safe: snapshot + intact log still recover, and Open
	// takes the max of the two marks.
	if h := (Header{Epoch: s.hdr.Epoch, Sealed: s.hdr.Sealed, LastTxn: s.nextTxn}); h != s.hdr {
		if err := writeHeader(s.dir, h); err != nil {
			return err
		}
		s.hdr = h
	}
	// A snapshot of an empty log keeps the previous segment: rotating
	// would replace it with nothing.
	if s.logSize > 0 {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	s.commitsSinceSnap = 0
	s.reg.Counter(MetricSnapshots).Inc()
	s.reg.Gauge(MetricSizeBytes).Set(0)
	return nil
}

// rotateLocked renames the live log over the previous segment, starts a
// fresh live log, and fsyncs the directory. The old log's handle stays
// open and now reads the previous segment.
func (s *Store) rotateLocked() error {
	if err := chaos.Inject(SiteRotate); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	logPath := filepath.Join(s.dir, LogFile)
	if err := os.Rename(logPath, filepath.Join(s.dir, PrevLogFile)); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_EXCL|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		// The live log now sits where recovery does not read it, so an
		// append to it would be lost at the next Open. Refuse appends
		// instead; the directory recovers, since the snapshot holds
		// every txn and Open creates a fresh log.
		s.closeFilesLocked()
		return fmt.Errorf("wal: rotate: %w", err)
	}
	atomicfile.SyncDir(s.dir)
	if s.prev.f != nil {
		s.prev.f.Close()
	}
	s.prev, s.live = s.live, segment{f: f}
	s.logSize = 0
	return nil
}

// closeFilesLocked releases both segments and marks the store closed.
func (s *Store) closeFilesLocked() error {
	s.closed = true
	err := s.live.f.Close()
	if s.prev.f != nil {
		s.prev.f.Close()
	}
	return err
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

// FramesSince returns the encoded batches of up to maxTxns committed
// transactions with id > after (maxTxns ≤ 0: every one retained),
// concatenated in log order (decodable with DecodeTxnFrames), plus the
// store's last txn id. The batches are read from the previous and the
// live log segment, never past the live log's durable size. ok=false
// means the segments no longer reach back to after+1 — the follower
// must bootstrap from a snapshot — or that the read failed (PollFrames
// tells the two apart). A follower at or ahead of last gets an empty
// ok=true (ahead is the caller's anomaly to surface).
func (s *Store) FramesSince(after uint64, maxTxns int) (data []byte, n int, last uint64, ok bool) {
	data, n, last, ok, _, err := s.poll(after, maxTxns)
	if err != nil {
		return nil, 0, last, false
	}
	return data, n, last, ok
}

// PollFrames is FramesSince with a long-poll: when the follower is
// caught up it blocks until a new transaction commits, the timeout
// elapses, or ctx is done (the latter two return empty, ok=true). A
// bootstrap-needed condition returns ok=false at once. A failed segment
// read, or a store closed under the poll, returns err at once instead:
// the follower should retry it, not bootstrap.
func (s *Store) PollFrames(ctx context.Context, after uint64, timeout time.Duration, maxTxns int) (data []byte, n int, last uint64, ok bool, err error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		data, n, last, ok, wake, err := s.poll(after, maxTxns)
		if err != nil || !ok || n > 0 {
			return data, n, last, ok, err
		}
		select {
		case <-wake:
		case <-deadline.C:
			return nil, 0, last, true, nil
		case <-ctx.Done():
			return nil, 0, last, true, nil
		}
	}
}

// poll runs one framesSinceLocked under the lock and returns the channel
// the next commit closes.
func (s *Store) poll(after uint64, maxTxns int) (data []byte, n int, last uint64, ok bool, wake <-chan struct{}, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, n, last, ok, err = s.framesSinceLocked(after, maxTxns)
	return data, n, last, ok, s.replWake, err
}

func (s *Store) framesSinceLocked(after uint64, maxTxns int) (data []byte, n int, last uint64, ok bool, err error) {
	last = s.nextTxn
	if after >= last {
		return nil, 0, last, true, nil
	}
	if s.closed {
		return nil, 0, last, false, errClosed
	}
	// Serve only a cursor the retained spans reach from after+1 through
	// last: recovery can set last past the newest committed span (the
	// header's mark, or ids of discarded txns), and nothing can be served
	// for the txns in between.
	oldest, newest := s.prev.spans, s.live.spans
	if len(oldest) == 0 {
		oldest = newest
	}
	if len(newest) == 0 {
		newest = oldest
	}
	if len(oldest) == 0 || oldest[0].txn > after+1 || newest[len(newest)-1].txn != last {
		return nil, 0, last, false, nil
	}
	segs := [2]*segment{&s.prev, &s.live}
	var picks [2][]txnSpan
	var size int64
	for i, seg := range segs {
		sp := seg.spans[sort.Search(len(seg.spans), func(k int) bool { return seg.spans[k].txn > after }):]
		if maxTxns > 0 && n+len(sp) > maxTxns {
			sp = sp[:maxTxns-n]
		}
		for _, t := range sp {
			size += t.end - t.off
		}
		picks[i] = sp
		n += len(sp)
	}
	data = make([]byte, size)
	pos := int64(0)
	for i, seg := range segs {
		if len(picks[i]) == 0 {
			continue
		}
		if err := chaos.Inject(SiteRead); err != nil {
			return nil, 0, last, false, fmt.Errorf("wal: read: %w", err)
		}
		for _, t := range picks[i] {
			if _, err := seg.f.ReadAt(data[pos:pos+t.end-t.off], t.off); err != nil {
				return nil, 0, last, false, fmt.Errorf("wal: read: %w", err)
			}
			pos += t.end - t.off
		}
	}
	return data, n, last, true, nil
}

// Close snapshots (folding the log into the snapshot and rotating it,
// so the next Open replays nothing) and releases both segments. Further
// appends fail, and so does a read of frames.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.cutLocked()
	if err == nil && s.logSize > 0 {
		err = s.snapshotLocked()
	}
	if s.closed { // a failed rotation closed the files
		return err
	}
	if cerr := s.closeFilesLocked(); err == nil {
		err = cerr
	}
	return err
}
