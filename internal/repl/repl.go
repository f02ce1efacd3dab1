// Package repl implements WAL log-shipping replication for the
// workbench service: a primary streams its sealed transaction frames
// (the exact CRC-framed batches from internal/wal) to warm read
// replicas, which replay them idempotently into a follower blackboard.
// The primary reads the frames from its WAL's log segments — the live
// log and the one its last snapshot rotated away — so a follower resumes
// from its cursor across a primary restart. A replica whose cursor is
// behind the oldest retained txn bootstraps from a full snapshot and
// converges by diff. Failover is fenced by a
// monotonic epoch persisted in the WAL header: every replication
// request and response carries the sender's epoch, a node that sees a
// newer epoch than its own knows it has been deposed and seals itself,
// and a request carrying a stale epoch is refused — so a promoted
// replica and a kill -9 survivor can never both accept writes.
//
// This package holds the protocol pieces shared by both sides — wire
// constants, epoch comparison, the replica-side Fetcher and Tailer —
// while internal/server mounts the primary-side handlers and wires the
// Tailer into its blackboard. Stdlib only, like the rest of the tree.
package repl

import (
	"strconv"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// Wire paths and headers of the replication protocol.
const (
	// LogPath long-polls sealed txn frames: GET ?after=<txn>&timeout=<dur>.
	LogPath = "/v1/repl/log"
	// SnapshotPath serves a full N-Triples snapshot for bootstrap.
	SnapshotPath = "/v1/repl/snapshot"
	// StatusPath reports a node's role, epoch, last txn, and lag.
	StatusPath = "/v1/repl/status"
	// FencePath notifies a node that a newer epoch exists (POST FenceRequest).
	FencePath = "/v1/repl/fence"
	// PromotePath turns a replica into the primary (POST, empty body).
	PromotePath = "/v1/promote"

	// EpochHeader carries the sender's fencing-epoch claim on replication
	// requests and responses. Absent or "0" on a request means no claim.
	EpochHeader = "X-Ib-Repl-Epoch"
	// LastTxnHeader carries the primary's highest committed txn id on
	// replication responses.
	LastTxnHeader = "X-Ib-Repl-Last-Txn"
	// SnapshotTxnHeader carries the txn id a snapshot body corresponds to.
	SnapshotTxnHeader = "X-Ib-Repl-Snapshot-Txn"
)

// Metric names emitted by replication (see DESIGN.md §15).
const (
	// MetricLagTxns gauges how many committed primary txns the replica
	// has not applied yet.
	MetricLagTxns = "repl_lag_txns"
	// MetricLagSeconds gauges seconds since the replica last heard from
	// the primary successfully.
	MetricLagSeconds = "repl_lag_seconds"
	// MetricShippedTxns counts txns served from the primary's WAL
	// segments.
	MetricShippedTxns = "repl_txns_shipped_total"
	// MetricAppliedTxns counts txns a replica applied.
	MetricAppliedTxns = "repl_txns_applied_total"
	// MetricBootstraps counts snapshot bootstraps a replica performed.
	MetricBootstraps = "repl_bootstraps_total"
	// MetricSnapshotsServed counts bootstrap snapshots a primary served.
	MetricSnapshotsServed = "repl_snapshots_served_total"
	// MetricPollErrors counts failed replication polls.
	MetricPollErrors = "repl_poll_errors_total"
)

// DescribeMetrics registers help strings for the replication metrics.
func DescribeMetrics(reg *obs.Registry) {
	reg.Describe(MetricLagTxns, "Committed primary txns not yet applied by this replica.")
	reg.Describe(MetricLagSeconds, "Seconds since this replica last heard from its primary.")
	reg.Describe(MetricShippedTxns, "Transactions served to followers from the WAL segments.")
	reg.Describe(MetricAppliedTxns, "Transactions applied from the primary.")
	reg.Describe(MetricBootstraps, "Snapshot bootstraps performed by this replica.")
	reg.Describe(MetricSnapshotsServed, "Bootstrap snapshots served to followers.")
	reg.Describe(MetricPollErrors, "Failed replication polls.")
}

// Chaos failpoint sites on the replication paths (see DESIGN.md §10).
const (
	// SiteShip fires on the primary before frames or a snapshot are served.
	SiteShip chaos.Site = "repl.ship"
	// SiteApply fires on the replica before a shipped txn is applied.
	SiteApply chaos.Site = "repl.apply"
	// SiteBootstrap fires on the replica before a fetched snapshot is
	// installed.
	SiteBootstrap chaos.Site = "repl.bootstrap"
)

func init() {
	chaos.RegisterSite(SiteShip, "primary: before serving repl frames or a snapshot")
	chaos.RegisterSite(SiteApply, "replica: before applying a shipped txn")
	chaos.RegisterSite(SiteBootstrap, "replica: before installing a bootstrap snapshot")
}

// Node roles as reported by /v1/repl/status and /healthz.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
	// RoleSealed is a deposed primary: fenced by a newer epoch, refusing
	// writes until restarted as a replica of the new primary.
	RoleSealed = "sealed"
)

// Outcome classifies a remote epoch against the local one. The
// comparison is purely numeric; the "no claim" convention for requests
// (epoch 0 skips the check, since 0 is also a legitimate first epoch)
// is the request guard's business, not CompareEpoch's.
type Outcome int

const (
	// EpochEqual: same fence; proceed.
	EpochEqual Outcome = iota
	// RemoteBehind: the remote's fence is stale; refuse it.
	RemoteBehind
	// RemoteAhead: a newer primary exists; the local node is deposed.
	RemoteAhead
)

// String names the outcome for logs and errors.
func (o Outcome) String() string {
	switch o {
	case EpochEqual:
		return "equal"
	case RemoteBehind:
		return "remote-behind"
	case RemoteAhead:
		return "remote-ahead"
	default:
		return "unknown"
	}
}

// CompareEpoch classifies remote against local.
func CompareEpoch(local, remote uint64) Outcome {
	switch {
	case remote == local:
		return EpochEqual
	case remote < local:
		return RemoteBehind
	default:
		return RemoteAhead
	}
}

// ParseEpochHeader decodes an X-Ib-Repl-Epoch value. An absent header
// ("") is a valid non-claim (0); garbage is not.
func ParseEpochHeader(h string) (uint64, bool) {
	if h == "" {
		return 0, true
	}
	e, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// Status is the wire shape of /v1/repl/status (and of the promote
// response): one node's view of its replication role and health.
type Status struct {
	Role    string `json:"role"`
	Epoch   uint64 `json:"epoch"`
	LastTxn uint64 `json:"lastTxn"`
	// Primary is the upstream URL (replicas only).
	Primary string `json:"primary,omitempty"`
	// LagTxns and LagSeconds quantify how far behind the upstream this
	// replica is; both are 0 on a primary.
	LagTxns    uint64  `json:"lagTxns"`
	LagSeconds float64 `json:"lagSeconds"`
	// Healthy is false while replication is stalled or the node is
	// sealed — the same condition /healthz degrades on.
	Healthy   bool   `json:"healthy"`
	LastError string `json:"lastError,omitempty"`
}

// FenceRequest tells a node that epoch Epoch now exists; a node behind
// it must seal itself.
type FenceRequest struct {
	Epoch uint64 `json:"epoch"`
}

// FenceResponse acknowledges a fence with the receiver's (new) state.
type FenceResponse struct {
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
}
