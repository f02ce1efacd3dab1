package wal

// The WAL header is a tiny sidecar file (wal.header) carrying
// replication metadata that must survive restarts, snapshots, and log
// rotations: the fencing epoch and the sealed flag. The epoch is a
// monotonic counter bumped by failover promotion — every replication
// request echoes it, and a node that sees a higher epoch than its own
// knows a newer primary exists and must stop accepting writes. Sealed
// records exactly that deposition durably, so a kill -9'd deposed
// primary cannot come back as a writable primary and split the brain.
//
// The header also carries the committed-transaction high-water mark.
// Snapshots rotate the log away from recovery, which reads only the
// live log — the only other place it finds txn ids — so without it a
// restart would reset the id space to zero, silently breaking every
// follower cursor (a follower "at" txn N of a reborn primary that
// restarted counting would never receive anything again). Every
// snapshot rewrites the header with the current mark before it rotates
// the log; Open takes the max of the header's mark and the log's
// highest id.
//
// The file is human-readable ("ibwal v1 epoch N sealed 0|1 txn T\n")
// and is replaced atomically (tmp + fsync + rename + dir fsync), so it
// is either the old header or the new one — never torn. A missing file
// is a legitimate pre-replication store (epoch 0, unsealed); anything
// unparsable is corruption and fails Open loudly rather than silently
// resetting the fence.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/atomicfile"
)

// HeaderFile is the header's file name inside a store directory.
const HeaderFile = "wal.header"

// Header is the durable replication metadata of one store.
type Header struct {
	// Epoch is the fencing epoch: bumped exactly once per promotion,
	// never decreased.
	Epoch uint64
	// Sealed marks a deposed primary: a newer epoch was observed, so
	// this store must refuse writes until it rejoins as a replica.
	Sealed bool
	// LastTxn is the committed-transaction high-water mark as of the
	// last header write; it keeps the txn id space monotonic across
	// snapshots (which rotate the live log, the ids' only other home
	// recovery reads, away).
	LastTxn uint64
}

// ReadHeader reads dir's WAL header. A missing file is the zero header
// (a store created before replication existed, or a fresh directory); a
// present but unparsable file is an error — a corrupt fence must stop
// the node, not silently reset the epoch.
func ReadHeader(dir string) (Header, error) {
	data, err := os.ReadFile(filepath.Join(dir, HeaderFile))
	if os.IsNotExist(err) {
		return Header{}, nil
	}
	if err != nil {
		return Header{}, fmt.Errorf("wal: header: %w", err)
	}
	return parseHeader(string(data))
}

// parseHeader decodes the "ibwal v1 epoch N sealed 0|1 txn T" line.
func parseHeader(s string) (Header, error) {
	f := strings.Fields(strings.TrimSpace(s))
	if len(f) != 8 || f[0] != "ibwal" || f[1] != "v1" || f[2] != "epoch" || f[4] != "sealed" || f[6] != "txn" {
		return Header{}, fmt.Errorf("wal: corrupt header %q", strings.TrimSpace(s))
	}
	epoch, err := strconv.ParseUint(f[3], 10, 64)
	if err != nil {
		return Header{}, fmt.Errorf("wal: corrupt header epoch %q", f[3])
	}
	var sealed bool
	switch f[5] {
	case "0":
	case "1":
		sealed = true
	default:
		return Header{}, fmt.Errorf("wal: corrupt header sealed flag %q", f[5])
	}
	txn, err := strconv.ParseUint(f[7], 10, 64)
	if err != nil {
		return Header{}, fmt.Errorf("wal: corrupt header txn %q", f[7])
	}
	return Header{Epoch: epoch, Sealed: sealed, LastTxn: txn}, nil
}

// writeHeader replaces dir's header atomically and durably.
func writeHeader(dir string, h Header) error {
	sealed := "0"
	if h.Sealed {
		sealed = "1"
	}
	line := fmt.Sprintf("ibwal v1 epoch %d sealed %s txn %d\n", h.Epoch, sealed, h.LastTxn)
	err := atomicfile.Write(filepath.Join(dir, HeaderFile), func(w io.Writer) error {
		_, err := io.WriteString(w, line)
		return err
	})
	if err != nil {
		return fmt.Errorf("wal: header: %w", err)
	}
	return nil
}

// Epoch returns the store's current fencing epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hdr.Epoch
}

// Sealed reports whether the store was fenced by a newer epoch.
func (s *Store) Sealed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hdr.Sealed
}

// SetEpoch durably advances the fencing epoch (and sets or clears the
// sealed flag). The epoch is monotonic: moving it backwards is refused
// with ErrEpochBehind — a deposed primary must never regain a fresher
// fence than the node that deposed it.
func (s *Store) SetEpoch(epoch uint64, sealed bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("wal: store closed")
	}
	if epoch < s.hdr.Epoch {
		return fmt.Errorf("wal: epoch %d behind current %d: %w", epoch, s.hdr.Epoch, ErrEpochBehind)
	}
	h := Header{Epoch: epoch, Sealed: sealed, LastTxn: s.nextTxn}
	if h == s.hdr {
		return nil
	}
	if err := writeHeader(s.dir, h); err != nil {
		return err
	}
	s.hdr = h
	return nil
}
