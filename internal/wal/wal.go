// Package wal gives the integration blackboard crash-safe durability: an
// append-only write-ahead log of graph mutations plus periodic full
// snapshots. The workbench manager's commit hook hands each committing
// transaction's undo-journal entries (rdf.ChangeOp, PR 3) to the Store,
// which frames them as length+CRC32 records, appends them in one batch
// write, and fsyncs before the commit is acknowledged. Recovery loads
// the latest snapshot, replays the log's committed transactions in
// order, and truncates any torn tail — so a process killed at any
// instant restarts with exactly the committed state (rdf.Equal to the
// pre-crash graph), never a partial transaction. A snapshot rotates the
// log into one retained previous segment (wal.prev), which recovery
// never reads; the Store serves followers their frames from it and the
// live log (FramesSince).
//
// The package is stdlib-only and depends only on internal/rdf,
// internal/chaos and internal/obs, keeping the dependency arrow
// wal ← server (the manager knows nothing about files; the service
// wires the two together through wbmgr.SetCommitHook).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// Metric names emitted by the WAL (see DESIGN.md §11).
const (
	// MetricAppends counts records appended to the log, labeled
	// kind=begin|add|del|commit|abort.
	MetricAppends = "wal_appends_total"
	// MetricFsync is the fsync latency histogram.
	MetricFsync = "wal_fsync_seconds"
	// MetricBatches counts batch writes (one per committed transaction).
	MetricBatches = "wal_batches_total"
	// MetricSnapshots counts snapshots taken.
	MetricSnapshots = "wal_snapshots_total"
	// MetricRecoveredTxns counts transactions replayed at recovery,
	// labeled status=committed|discarded.
	MetricRecoveredTxns = "wal_recovered_txns_total"
	// MetricTornTails counts torn tails truncated at recovery.
	MetricTornTails = "wal_torn_tail_truncations_total"
	// MetricSizeBytes gauges the current log file size.
	MetricSizeBytes = "wal_size_bytes"
)

// Chaos failpoint sites threaded through the WAL (see DESIGN.md §10/§11).
// Each sits on the durability-critical path so an injected fault or
// panic exercises the commit-rollback and recovery invariants.
const (
	// SiteAppend fires before a batch of records is written to the log.
	SiteAppend chaos.Site = "wal.append"
	// SiteFsync fires before the log file is fsynced.
	SiteFsync chaos.Site = "wal.fsync"
	// SiteSnapshot fires mid-snapshot, after the temp file is written
	// but before the atomic rename.
	SiteSnapshot chaos.Site = "wal.snapshot"
	// SiteRecover fires at the start of recovery (Open).
	SiteRecover chaos.Site = "wal.recover"
	// SiteRotate fires after a snapshot and its header are durable,
	// before the live log is renamed over the previous segment.
	SiteRotate chaos.Site = "wal.rotate"
	// SiteRead fires before committed frames are read from a log
	// segment for a follower.
	SiteRead chaos.Site = "wal.read"
)

func init() {
	chaos.RegisterSite(SiteAppend, "before a WAL batch write")
	chaos.RegisterSite(SiteFsync, "before a WAL fsync")
	chaos.RegisterSite(SiteSnapshot, "mid-snapshot, before the atomic rename")
	chaos.RegisterSite(SiteRecover, "at the start of WAL recovery")
	chaos.RegisterSite(SiteRotate, "after a snapshot is durable, before the log rotates")
	chaos.RegisterSite(SiteRead, "before frames are read from a WAL segment")
}

// Kind tags one WAL record.
type Kind byte

// The five record kinds. A transaction is framed Begin, then its Add and
// Del mutations in order, then Commit (or Abort; the durable manager
// only logs at commit time, so Abort records normally never appear, but
// recovery honors them for forward compatibility).
const (
	KindBegin  Kind = 'B'
	KindAdd    Kind = '+'
	KindDel    Kind = '-'
	KindCommit Kind = 'C'
	KindAbort  Kind = 'A'
)

// String names the kind for metrics labels.
func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindAdd:
		return "add"
	case KindDel:
		return "del"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	default:
		return fmt.Sprintf("unknown(%d)", byte(k))
	}
}

// Record is one WAL entry: a transaction boundary or one triple
// mutation. Triple is serialized as a canonical N-Triples statement
// (the same form the snapshot uses), empty for boundary records.
type Record struct {
	Kind   Kind
	Txn    uint64
	Triple string
}

// maxPayload bounds a single record's payload; anything larger in the
// file means corruption (or a torn length field) and stops the scan.
const maxPayload = 64 << 20

// frameOverhead is the fixed per-record framing cost: a uint32 payload
// length followed by a uint32 CRC32 (IEEE) of the payload.
const frameOverhead = 8

// appendFrame encodes r into buf as one framed record and returns the
// extended buffer.
func appendFrame(buf []byte, r Record) []byte {
	buf, start := beginFrame(buf, r.Kind, r.Txn)
	return endFrame(append(buf, r.Triple...), start)
}

// beginFrame appends a frame's header, to be filled in by endFrame, and
// the start of its payload: kind byte | uvarint txn. The caller appends
// the rest of the payload (the triple bytes) straight after. start is
// the frame's offset in buf.
func beginFrame(buf []byte, k Kind, txn uint64) (_ []byte, start int) {
	start = len(buf)
	buf = append(buf, make([]byte, frameOverhead)...)
	buf = append(buf, byte(k))
	return binary.AppendUvarint(buf, txn), start
}

// endFrame fills in the header of the frame at start, whose payload runs
// to the end of buf: the payload length, and its CRC, computed in place.
func endFrame(buf []byte, start int) []byte {
	payload := buf[start+frameOverhead:]
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc32.ChecksumIEEE(payload))
	return buf
}

// decodePayload parses one record payload (already CRC-verified) into
// its kind, txn id and triple bytes, which alias p.
func decodePayload(p []byte) (Kind, uint64, []byte, error) {
	if len(p) == 0 {
		return 0, 0, nil, fmt.Errorf("wal: empty record payload")
	}
	k := Kind(p[0])
	switch k {
	case KindBegin, KindAdd, KindDel, KindCommit, KindAbort:
	default:
		return 0, 0, nil, fmt.Errorf("wal: unknown record kind 0x%02x", p[0])
	}
	txn, n := binary.Uvarint(p[1:])
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("wal: bad txn id varint")
	}
	return k, txn, p[1+n:], nil
}

// frame is one fully framed, CRC-valid record as walkFrames finds it:
// its kind, txn id and triple bytes (aliasing the walked data), and the
// byte range [off, end) the frame occupies.
type frame struct {
	kind     Kind
	txn      uint64
	triple   []byte
	off, end int64
}

// walkFrames walks the framed records in data, calling fn for each
// fully-framed, CRC-valid record. It returns the byte offset just past
// the last good record; torn reports whether trailing bytes had to be
// discarded (a partial frame, a CRC mismatch, or an implausible length
// — everything from the first bad frame on is treated as torn tail,
// because nothing after it can be trusted).
func walkFrames(data []byte, fn func(frame) error) (clean int64, torn bool, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < frameOverhead {
			return int64(off), true, nil
		}
		payloadLen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if payloadLen <= 0 || payloadLen > maxPayload || off+frameOverhead+payloadLen > len(data) {
			return int64(off), true, nil
		}
		wantCRC := binary.LittleEndian.Uint32(data[off+4 : off+8])
		end := off + frameOverhead + payloadLen
		payload := data[off+frameOverhead : end]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return int64(off), true, nil
		}
		k, txn, triple, derr := decodePayload(payload)
		if derr != nil {
			// Framed and checksummed but undecodable: corruption that a
			// torn write cannot explain. Stop here and report it.
			return int64(off), true, nil
		}
		if err := fn(frame{kind: k, txn: txn, triple: triple, off: int64(off), end: int64(end)}); err != nil {
			return int64(off), false, err
		}
		off = end
	}
	return int64(off), false, nil
}

// scanFrames is walkFrames handing fn decoded Records (fn may be nil).
func scanFrames(data []byte, fn func(Record) error) (clean int64, torn bool, err error) {
	return walkFrames(data, func(f frame) error {
		if fn == nil {
			return nil
		}
		return fn(Record{Kind: f.kind, Txn: f.txn, Triple: string(f.triple)})
	})
}

// EncodeTxn frames one committed transaction (begin, ops, commit) into a
// single buffer, ready for an atomic batch append. Each triple is
// rendered straight into its frame.
func EncodeTxn(txn uint64, ops []rdf.ChangeOp) []byte {
	// Rough capacity: framing + kind/txn bytes + ~64 bytes per triple.
	buf := make([]byte, 0, (len(ops)+2)*(frameOverhead+12)+len(ops)*64)
	buf = appendFrame(buf, Record{Kind: KindBegin, Txn: txn})
	for _, op := range ops {
		k := KindAdd
		if !op.Add {
			k = KindDel
		}
		var start int
		buf, start = beginFrame(buf, k, txn)
		buf = endFrame(op.T.AppendTo(buf), start)
	}
	buf = appendFrame(buf, Record{Kind: KindCommit, Txn: txn})
	return buf
}

// TxnFrame is one commit-sealed transaction as shipped between nodes:
// the originating txn id, the decoded mutations (ready for idempotent
// replay into a follower graph), and the raw CRC-framed bytes exactly
// as they sit in the primary's log.
type TxnFrame struct {
	Txn  uint64
	Ops  []rdf.ChangeOp
	Data []byte
}

// DecodeTxnFrames parses a replication batch: a concatenation of whole,
// commit-sealed transaction frames (the /v1/repl/log body). Unlike
// local recovery — which tolerates and truncates a torn tail — a
// shipped batch must be exact: every record must sit inside a
// Begin..Commit bracket and the stream must end on a commit boundary,
// because the shipper only ever sends fully durable transactions.
// Anything else is a protocol error or corruption in transit.
func DecodeTxnFrames(data []byte) ([]TxnFrame, error) {
	var out []TxnFrame
	var cur *TxnFrame
	start := 0
	off := 0
	for off < len(data) {
		if len(data)-off < frameOverhead {
			return nil, fmt.Errorf("wal: shipped batch: torn frame header at byte %d", off)
		}
		payloadLen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if payloadLen <= 0 || payloadLen > maxPayload || off+frameOverhead+payloadLen > len(data) {
			return nil, fmt.Errorf("wal: shipped batch: implausible frame length %d at byte %d", payloadLen, off)
		}
		payload := data[off+frameOverhead : off+frameOverhead+payloadLen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			return nil, fmt.Errorf("wal: shipped batch: CRC mismatch at byte %d", off)
		}
		k, txn, triple, err := decodePayload(payload)
		if err != nil {
			return nil, fmt.Errorf("wal: shipped batch: %w", err)
		}
		rec := Record{Kind: k, Txn: txn, Triple: string(triple)}
		end := off + frameOverhead + payloadLen
		switch rec.Kind {
		case KindBegin:
			if cur != nil {
				return nil, fmt.Errorf("wal: shipped batch: begin of txn %d inside txn %d", rec.Txn, cur.Txn)
			}
			cur = &TxnFrame{Txn: rec.Txn}
			start = off
		case KindAdd, KindDel:
			if cur == nil || rec.Txn != cur.Txn {
				return nil, fmt.Errorf("wal: shipped batch: stray %s record for txn %d", rec.Kind, rec.Txn)
			}
			t, perr := rdf.ParseTriple(rec.Triple)
			if perr != nil {
				return nil, fmt.Errorf("wal: shipped batch: txn %d: %w", rec.Txn, perr)
			}
			cur.Ops = append(cur.Ops, rdf.ChangeOp{Add: rec.Kind == KindAdd, T: t})
		case KindCommit:
			if cur == nil || rec.Txn != cur.Txn {
				return nil, fmt.Errorf("wal: shipped batch: stray commit record for txn %d", rec.Txn)
			}
			cur.Data = append([]byte(nil), data[start:end]...)
			out = append(out, *cur)
			cur = nil
		case KindAbort:
			return nil, fmt.Errorf("wal: shipped batch: abort record for txn %d (only committed txns ship)", rec.Txn)
		}
		off = end
	}
	if cur != nil {
		return nil, fmt.Errorf("wal: shipped batch ends inside txn %d", cur.Txn)
	}
	return out, nil
}

// countRecords reports the record kinds in an encoded batch, for the
// append metrics (len(ops) adds/dels plus the two boundary records).
func countTxnRecords(reg *obs.Registry, ops []rdf.ChangeOp) {
	adds, dels := 0, 0
	for _, op := range ops {
		if op.Add {
			adds++
		} else {
			dels++
		}
	}
	reg.Counter(MetricAppends, "kind", "begin").Inc()
	reg.Counter(MetricAppends, "kind", "add").Add(int64(adds))
	reg.Counter(MetricAppends, "kind", "del").Add(int64(dels))
	reg.Counter(MetricAppends, "kind", "commit").Inc()
}
