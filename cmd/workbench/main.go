// Command workbench is a stateful CLI over the integration blackboard:
// both the long-lived workbench service and its client.
//
// Service mode (`workbench serve`) runs a crash-safe, WAL-backed
// blackboard behind an HTTP/JSON API; -remote ADDR runs a subcommand
// against it, so several analysts share one durable blackboard. Local
// mode is the same client against an in-process service: the N-Triples
// snapshot named by -state (default workbench.nt) is restored into the
// default workspace of a service with no data dir, the subcommand runs
// through the same code as with -remote (the client's transport calls
// the service's handler; nothing listens), and the blackboard is
// written back when the subcommand succeeded and changed it. Both modes
// print the same output and record the same provenance: a decision is
// set by "remote", as for any client without a session.
//
// Subcommands:
//
//	workbench load <schema-file>             import a schema (.xsd/.sql/.er)
//	workbench schemas                        list stored schemata
//	workbench map <id> <source> <target>     create a mapping
//	workbench match <id> [threshold]         run Harmony, publish cells
//	workbench accept <id> <srcElem> <tgtElem>
//	workbench reject <id> <srcElem> <tgtElem>
//	workbench cells <id>                     print the mapping matrix cells
//	workbench code <id> <row> <var> <col> <expr>  attach column code
//	workbench gen <id> <srcEntity> <tgtEntity>    assemble + print XQuery
//	workbench query '<pattern lines>' v1 v2       ad hoc IB query
//	workbench metrics                        dump obs metrics for this blackboard
//	workbench sim [tools] [ops]              chaos-simulate a workbench in memory
//	workbench registry-match [flags]         registry-scale matching quality/speed harness
//	workbench plan [flags]                   show what `apply` would change (schema sets)
//	workbench apply [flags]                  apply a versioned schema set (diff, confirm, re-match)
//	workbench serve                          serve the durable workbench service
//	workbench fsck                           check blackboard/WAL integrity
//	workbench events [after [timeout]]       long-poll the service event feed (-remote)
//	workbench snapshot                       force a WAL snapshot (-remote)
//	workbench promote                        promote a replica to primary (-remote)
//	workbench repl-status                    replication role/epoch/lag (-remote)
//	workbench trace [id|slow]                inspect server request traces (-remote)
//	workbench loadgen [flags]                sustained-load telemetry harness (-remote)
//	workbench workspace create|list|rm       manage service workspaces (-remote)
//
// Global flags: -state <file> (default workbench.nt) for local mode;
// -remote <addr> to run a subcommand against a service; -workspace
// <name> to scope remote subcommands to one tenant (default:
// `default`); -addr, -data-dir and -pprof for serve/fsck; for the
// metrics subcommand, -json switches to JSON exposition and -serve
// <addr> blocks serving /metrics and /healthz over HTTP instead of
// printing.
//
// Flag placement: subcommands that take flags (serve, fsck, loadgen,
// promote, trace, metrics, workspace, registry-match, plan, apply) accept them on
// either side of the subcommand word — the global parser stops at the
// first non-flag, and the subcommand re-parses what's left. Fixed-arity
// subcommands reject trailing flags outright; nothing is ever silently
// ignored.
//
// Multi-tenant service: `workbench serve` hosts N isolated workspaces
// (own blackboard, WAL partition, event feed; per-workspace metrics
// labels). `workbench -remote ADDR workspace create NAME` adds one;
// `-workspace NAME` points any remote subcommand at it (DESIGN.md §16).
//
// Every -remote request carries an X-Ib-Trace header; after any remote
// subcommand, `workbench -remote ADDR trace <id>` (or just `trace` for
// the recent list) shows the server-side span tree — HTTP route → wbmgr
// transaction → Harmony stages → WAL fsync. `workbench loadgen` drives
// N concurrent clients through the sim's seeded op mix and writes the
// per-route latency percentiles consumed by BENCH_6.json.
//
// `workbench serve` needs no graceful shutdown: every commit is in the
// write-ahead log before it is acknowledged, so kill -9 at any instant
// loses nothing — the next start replays the log (see DESIGN.md §11).
//
// Replication: `workbench serve -replica-of URL` tails a primary's WAL
// into a read-only follower that serves every read route; writes come
// back 409 pointing at the primary. If the primary dies, `workbench
// -remote REPLICA promote` bumps the fencing epoch and opens the
// replica for writes; a surviving old primary is sealed by the epoch
// and refuses writes until restarted with -replica-of (DESIGN.md §15).
//
// Fault injection: -chaos-sites arms failpoints for any subcommand
// (chaos.ParseSpec syntax, e.g. "all=error:0.2" or
// "blackboard.setcell=panic:n3") and -chaos-seed makes the fault
// schedule reproducible. The sim subcommand runs the seed-replayable
// randomized workload with invariant checking; a failing sim prints the
// exact flags to replay it.
//
// Exit codes: 0 success; 1 operational failure (the error is printed to
// stderr); 2 usage error. Every failure path exits non-zero — a
// reported failure never exits 0.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/blackboard"
	"repro/internal/chaos"
	"repro/internal/chaos/sim"
	"repro/internal/client"
	"repro/internal/loadgen"
	"repro/internal/mapgen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/regmatch"
	"repro/internal/schemaset"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// opts carries the parsed global flags into the subcommands.
type opts struct {
	state      string
	remote     string
	workspace  string
	addr       string
	dataDir    string
	replicaOf  string
	asJSON     bool
	serveAddr  string
	pprof      bool
	chaosSeed  int64
	chaosSites string
}

// usageExit and failExit are the sentinel exit codes run() maps errors
// onto: a usageError exits 2, everything else exits 1.
type usageError struct{ line string }

func (e usageError) Error() string { return "usage: workbench " + e.line }

// need enforces a subcommand's positional arity.
func need(args []string, n int, usageLine string) error {
	if len(args) < n {
		return usageError{usageLine}
	}
	return nil
}

func run(argv []string) int {
	fs := flag.NewFlagSet("workbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var o opts
	fs.StringVar(&o.state, "state", "workbench.nt", "blackboard snapshot file (local mode)")
	fs.StringVar(&o.remote, "remote", "", "workbench service address; runs the subcommand as a client")
	fs.StringVar(&o.workspace, "workspace", "", "service workspace remote subcommands address (default: the default workspace)")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "serve: listen address")
	fs.StringVar(&o.dataDir, "data-dir", "", "serve/fsck: WAL store directory")
	fs.StringVar(&o.replicaOf, "replica-of", "", "serve: tail the primary at this URL as a read-only replica")
	fs.BoolVar(&o.asJSON, "json", false, "metrics: JSON exposition instead of Prometheus text")
	fs.BoolVar(&o.pprof, "pprof", false, "serve: mount net/http/pprof under /debug/pprof/")
	fs.StringVar(&o.serveAddr, "serve", "", "metrics: serve /metrics and /healthz on this address instead of printing")
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 0, "seed for the chaos fault schedule (with -chaos-sites) and the sim workload")
	fs.StringVar(&o.chaosSites, "chaos-sites", "", "arm chaos failpoints: comma-separated site spec (chaos.ParseSpec syntax; 'all' for every site)")
	fs.Usage = func() { usage(os.Stderr) }
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	args := fs.Args()
	if len(args) == 0 {
		usage(os.Stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]

	if cmd == "sim" {
		return runSim(o.chaosSeed, o.chaosSites, rest)
	}
	if cmd == "registry-match" {
		if err := runRegistryMatch(rest); err != nil {
			if ue, ok := err.(usageError); ok {
				fmt.Fprintln(os.Stderr, ue.Error())
				return 2
			}
			return report(err)
		}
		return 0
	}
	if o.chaosSites != "" {
		rules, err := chaos.ParseSpec(o.chaosSites)
		if err != nil {
			return report(err)
		}
		armed := chaos.Apply(o.chaosSeed, rules)
		fmt.Fprintf(os.Stderr, "workbench: chaos armed (seed %d): %d sites\n", o.chaosSeed, len(armed))
	}

	var err error
	switch {
	case cmd == "serve":
		err = runServe(o, rest)
	case cmd == "fsck":
		err = runFsck(o, rest)
	case cmd == "loadgen":
		err = runLoadgen(o, rest)
	case cmd == "promote":
		err = runPromote(o, rest)
	case cmd == "trace":
		err = runTraceCmd(o, rest)
	case cmd == "metrics":
		err = runMetrics(o, rest)
	case cmd == "workspace":
		err = runWorkspace(o, rest)
	case o.remote != "":
		err = runRemote(o, cmd, rest)
	default:
		err = runLocal(o, cmd, rest)
	}
	switch e := err.(type) {
	case nil:
		return 0
	case usageError:
		fmt.Fprintln(os.Stderr, e.Error())
		return 2
	default:
		return report(err)
	}
}

// report prints an operational failure and returns exit code 1.
func report(err error) int {
	fmt.Fprintln(os.Stderr, "workbench:", err)
	return 1
}

// rejectFlags refuses flag-looking arguments handed to a fixed-arity
// subcommand: flags after those subcommands are neither parsed nor
// positional values, and silently treating "-remote" as a schema name
// (or dropping it) hides user error. Negative numbers ("-0.5") pass.
func rejectFlags(cmd string, rest []string) error {
	for _, a := range rest {
		if len(a) > 1 && a[0] == '-' && a[1] != '.' && (a[1] < '0' || a[1] > '9') {
			return usageError{fmt.Sprintf("%s: flag %q must come before the subcommand", cmd, a)}
		}
	}
	return nil
}

// ---- service mode ----

// runServe starts the durable workbench service and blocks. There is no
// graceful-shutdown path on purpose: durability comes from the WAL, not
// from orderly exits. Serve flags are accepted on either side of the
// subcommand (`workbench -replica-of URL serve` and `workbench serve
// -replica-of URL` are equivalent) — the global flag parser stops at
// the first non-flag argument, so trailing flags are re-parsed here
// rather than silently dropped.
func runServe(o opts, rest []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", o.addr, "listen address")
	fs.StringVar(&o.dataDir, "data-dir", o.dataDir, "WAL directory for durable state")
	fs.BoolVar(&o.pprof, "pprof", o.pprof, "mount net/http/pprof under /debug/pprof/")
	fs.StringVar(&o.replicaOf, "replica-of", o.replicaOf, "tail the primary at this URL as a read-only replica")
	maxTriples := fs.Int("max-triples", 0, "default per-workspace triple quota (0 = unlimited)")
	maxWALBytes := fs.Int64("max-wal-bytes", 0, "default per-workspace WAL byte quota (0 = unlimited)")
	if err := fs.Parse(rest); err != nil {
		return usageError{"serve [-addr host:port] [-data-dir dir] [-pprof] [-replica-of url] [-max-triples n] [-max-wal-bytes n]"}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Sprintf("serve: unexpected argument %q", fs.Arg(0))}
	}
	if o.dataDir == "" {
		fmt.Fprintln(os.Stderr, "workbench: serve without -data-dir: state is in-memory only")
	}
	srv, err := server.New(server.Config{
		DataDir: o.dataDir, Metrics: obs.Default(), EnablePprof: o.pprof,
		ReplicaOf:   o.replicaOf,
		MaxTriples:  *maxTriples,
		MaxWALBytes: *maxWALBytes,
	})
	if err != nil {
		return err
	}
	if o.dataDir != "" {
		fmt.Printf("workbench: recovered %s: %s (%d workspaces)\n",
			o.dataDir, srv.Store().Stats(), len(srv.Workspaces().Names()))
	}
	if o.replicaOf != "" {
		fmt.Printf("workbench: replica of %s (read-only until promoted)\n", o.replicaOf)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Printf("workbench: serving on http://%s\n", ln.Addr())
	return http.Serve(ln, srv.Handler())
}

// runFsck checks integrity: of a WAL data dir (-data-dir; every
// workspace partition under a multi-tenant layout), of a local snapshot
// (-state), or of a running service (-remote, scoped by -workspace).
// Its flags are honored on either side of the subcommand word.
func runFsck(o opts, rest []string) error {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.StringVar(&o.remote, "remote", o.remote, "check a running service instead of local files")
	fs.StringVar(&o.workspace, "workspace", o.workspace, "service workspace to check (with -remote)")
	fs.StringVar(&o.dataDir, "data-dir", o.dataDir, "WAL store directory to recover and check")
	fs.StringVar(&o.state, "state", o.state, "local snapshot file to check")
	if err := fs.Parse(rest); err != nil {
		return usageError{"fsck [-remote addr [-workspace ws]] [-data-dir dir] [-state file]"}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Sprintf("fsck: unexpected argument %q", fs.Arg(0))}
	}
	switch {
	case o.remote != "":
		resp, err := remoteClient(o).Fsck()
		if err != nil {
			return err
		}
		if resp.Recovery != "" {
			fmt.Printf("recovery: %s\n", resp.Recovery)
		}
		for _, e := range resp.Errors {
			fmt.Println("  " + e)
		}
		if !resp.Clean {
			return fmt.Errorf("fsck: %d integrity violations", len(resp.Errors))
		}
		fmt.Printf("fsck: clean (%d triples)\n", resp.Triples)
		return nil
	case o.dataDir != "":
		// A multi-tenant data dir keeps one partition per workspace under
		// ws/; the pre-workspace flat layout is a single store at the top.
		wsRoot := filepath.Join(o.dataDir, "ws")
		entries, err := os.ReadDir(wsRoot)
		if err != nil {
			g, stats, rerr := wal.Recover(o.dataDir)
			if rerr != nil {
				return fmt.Errorf("fsck: %w", rerr)
			}
			fmt.Printf("recovery: %s\n", stats)
			return fsckGraph(blackboard.NewFromGraph(g))
		}
		var firstErr error
		checked := 0
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			checked++
			g, stats, rerr := wal.Recover(filepath.Join(wsRoot, e.Name()))
			if rerr != nil {
				return fmt.Errorf("fsck: workspace %s: %w", e.Name(), rerr)
			}
			fmt.Printf("recovery: [%s] %s\n", e.Name(), stats)
			if ferr := fsckGraph(blackboard.NewFromGraph(g)); ferr != nil && firstErr == nil {
				firstErr = fmt.Errorf("workspace %s: %w", e.Name(), ferr)
			}
		}
		if checked == 0 {
			return fmt.Errorf("fsck: no workspace partitions under %s", wsRoot)
		}
		return firstErr
	default:
		bb := blackboard.New()
		if err := loadState(o.state, bb); err != nil {
			return fmt.Errorf("fsck: %w", err)
		}
		return fsckGraph(bb)
	}
}

func fsckGraph(bb *blackboard.Blackboard) error {
	errs := bb.CheckIntegrity()
	for _, e := range errs {
		fmt.Println("  " + e.Error())
	}
	if len(errs) > 0 {
		return fmt.Errorf("fsck: %d integrity violations", len(errs))
	}
	fmt.Printf("fsck: clean (%d triples)\n", bb.Graph().Len())
	return nil
}

// ---- data subcommands ----

// remoteClient addresses the service at -remote, scoped by -workspace.
func remoteClient(o opts) *client.Client {
	c := client.New(o.remote)
	if o.workspace != "" {
		c = c.ForWorkspace(o.workspace)
	}
	return c
}

// runRemote runs one data subcommand against the service at -remote.
func runRemote(o opts, cmd string, rest []string) error {
	switch cmd {
	case "code", "gen", "dot":
		return usageError{fmt.Sprintf("%s is not available in -remote mode", cmd)}
	}
	return runCommand(remoteClient(o), cmd, rest)
}

// runLocal runs one subcommand against the -state file through an
// in-process service: the file is restored into the default workspace
// of a service with no data dir, data subcommands run through
// runCommand on a client whose transport calls the service's handler,
// and code, gen and dot edit that same blackboard directly. The file is
// rewritten only when the subcommand succeeded and changed the
// blackboard, so a failed run never clobbers the previous state. The
// feed, snapshot and replication subcommands need a real service.
func runLocal(o opts, cmd string, rest []string) error {
	switch cmd {
	case "events", "snapshot", "repl-status":
		return usageError{cmd + " requires -remote ADDR (a running `workbench serve`)"}
	}
	srv, err := server.New(server.Config{SlowRequest: -1})
	if err != nil {
		return err
	}
	defer srv.Close()
	bb := srv.Workspaces().Default().Blackboard()
	if err := loadState(o.state, bb); err != nil {
		return err
	}
	rev := bb.Revision()
	switch cmd {
	case "code", "gen", "dot":
		err = runOffline(bb, cmd, rest)
	default:
		c := client.New("in-process")
		c.SetHTTPClient(&http.Client{Transport: inProcess{srv.Handler()}})
		err = runCommand(c, cmd, rest)
	}
	if err != nil || bb.Revision() == rev {
		return err
	}
	return saveState(o.state, bb)
}

// inProcess is an http.RoundTripper that serves every request with h in
// this process.
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body == nil {
		r = r.Clone(r.Context())
		r.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// runCommand executes one data subcommand through c. It is the only
// implementation of each: -remote passes a client of the service at
// ADDR, local mode one of its in-process service, so scripts don't care
// which side of the network the blackboard lives on.
func runCommand(c *client.Client, cmd string, rest []string) error {
	if cmd == "plan" || cmd == "apply" {
		return runSchemaSet(c, cmd, rest)
	}
	if err := rejectFlags(cmd, rest); err != nil {
		return err
	}
	switch cmd {
	case "load":
		if err := need(rest, 1, "load <schema-file>"); err != nil {
			return err
		}
		name, format, err := schemaset.SchemaNameFormat(rest[0])
		if err != nil {
			return err
		}
		text, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		info, err := c.LoadSchema(name, format, string(text))
		if err != nil {
			return err
		}
		fmt.Printf("loaded schema %q (version %d, %d elements)\n", info.Name, info.Version, info.Elements)
	case "schemas":
		infos, err := c.Schemas()
		if err != nil {
			return err
		}
		for _, s := range infos {
			fmt.Printf("  %s (v%d)\n", s.Name, s.Version)
		}
	case "map":
		if err := need(rest, 3, "map <id> <source> <target>"); err != nil {
			return err
		}
		if _, err := c.NewMapping(rest[0], rest[1], rest[2]); err != nil {
			return err
		}
		fmt.Printf("created mapping %q: %s → %s\n", rest[0], rest[1], rest[2])
	case "match":
		if err := need(rest, 1, "match <id> [threshold]"); err != nil {
			return err
		}
		threshold := server.DefaultThreshold
		if len(rest) > 1 {
			t, err := strconv.ParseFloat(rest[1], 64)
			if err != nil {
				return err
			}
			threshold = t
		}
		resp, err := c.Match(rest[0], threshold)
		if err != nil {
			return err
		}
		for _, cell := range resp.Cells {
			fmt.Printf("  %s ↔ %s (%+.2f)\n", cell.Source, cell.Target, cell.Confidence)
		}
		fmt.Printf("published %d cells at threshold %.2f (%d written)\n", resp.Published, resp.Threshold, len(resp.Cells))
	case "accept", "reject":
		if err := need(rest, 3, cmd+" <id> <srcElem> <tgtElem>"); err != nil {
			return err
		}
		if _, err := c.Decide(rest[0], rest[1], rest[2], cmd); err != nil {
			return err
		}
		fmt.Printf("%sed %s ↔ %s\n", cmd, rest[1], rest[2])
	case "cells":
		if err := need(rest, 1, "cells <id>"); err != nil {
			return err
		}
		cells, err := c.Cells(rest[0])
		if err != nil {
			return err
		}
		for _, cell := range cells {
			origin := "machine"
			if cell.UserDefined {
				origin = "user"
			}
			fmt.Printf("  %-40s ↔ %-40s %+.2f (%s, by %s)\n",
				cell.Source, cell.Target, cell.Confidence, origin, cell.SetBy)
		}
	case "query":
		if err := need(rest, 2, "query '<pattern lines>' v1 [v2 ...]"); err != nil {
			return err
		}
		rows, err := c.Query(rest[0], rest[1:]...)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println(" ", strings.Join(r, "  "))
		}
		fmt.Printf("%d rows\n", len(rows))
	case "events":
		after := uint64(0)
		timeout := 10 * time.Second
		if len(rest) > 0 {
			n, err := strconv.ParseUint(rest[0], 10, 64)
			if err != nil {
				return err
			}
			after = n
		}
		if len(rest) > 1 {
			d, err := time.ParseDuration(rest[1])
			if err != nil {
				return err
			}
			timeout = d
		}
		evs, next, gap, err := c.Events(after, timeout)
		if err != nil {
			return err
		}
		if gap {
			fmt.Println("  (gap: events were evicted before this client caught up)")
		}
		for _, e := range evs {
			fmt.Printf("  #%d %-15s %-24s %s\n", e.Seq, e.Kind, e.Tool, e.Subject)
		}
		fmt.Printf("next cursor: %d\n", next)
	case "snapshot":
		resp, err := c.SnapshotNow()
		if err != nil {
			return err
		}
		fmt.Printf("snapshot taken (%d triples)\n", resp.Triples)
	case "repl-status":
		st, err := c.ReplStatus()
		if err != nil {
			return err
		}
		health := "healthy"
		if !st.Healthy {
			health = "UNHEALTHY"
			if st.LastError != "" {
				health += " (" + st.LastError + ")"
			}
		}
		fmt.Printf("role %s, epoch %d, last txn %d — %s\n", st.Role, st.Epoch, st.LastTxn, health)
		if st.Role == "replica" {
			fmt.Printf("  primary %s, lag %d txns / %.1fs\n", st.Primary, st.LagTxns, st.LagSeconds)
		}
	default:
		return usageError{"<command>; run with no arguments for the command list"}
	}
	return nil
}

// runPromote promotes a replica to primary. Promotion is node-level —
// one epoch fences every workspace — so -workspace is not accepted.
func runPromote(o opts, rest []string) error {
	fs := flag.NewFlagSet("promote", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.StringVar(&o.remote, "remote", o.remote, "replica address to promote")
	if err := fs.Parse(rest); err != nil {
		return usageError{"promote [-remote addr]"}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Sprintf("promote: unexpected argument %q", fs.Arg(0))}
	}
	if o.remote == "" {
		return usageError{"promote requires -remote ADDR (the replica to promote)"}
	}
	st, err := client.New(o.remote).Promote()
	if err != nil {
		return err
	}
	fmt.Printf("promoted: role %s, epoch %d, last txn %d\n", st.Role, st.Epoch, st.LastTxn)
	return nil
}

// runTraceCmd inspects a service's request traces; its -remote flag is
// honored after the subcommand word, and anything flag-shaped after the
// positional arguments is rejected.
func runTraceCmd(o opts, rest []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.StringVar(&o.remote, "remote", o.remote, "workbench service address")
	if err := fs.Parse(rest); err != nil {
		return usageError{"trace [-remote addr] [id | slow [min]]"}
	}
	if o.remote == "" {
		return usageError{"trace requires -remote ADDR (a running `workbench serve`)"}
	}
	args := fs.Args()
	if err := rejectFlags("trace", args); err != nil {
		return err
	}
	return runTrace(client.New(o.remote), args)
}

// runWorkspace manages service workspaces:
//
//	workbench -remote ADDR workspace create <name> [-max-triples n] [-max-wal-bytes n]
//	workbench -remote ADDR workspace list
//	workbench -remote ADDR workspace rm <name>
func runWorkspace(o opts, rest []string) error {
	const usageLine = "workspace create <name> [-max-triples n] [-max-wal-bytes n] | workspace list | workspace rm <name> (requires -remote)"
	fs := flag.NewFlagSet("workspace", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.StringVar(&o.remote, "remote", o.remote, "workbench service address")
	maxTriples := fs.Int("max-triples", 0, "create: triple quota (0 = server default)")
	maxWALBytes := fs.Int64("max-wal-bytes", 0, "create: WAL byte quota (0 = server default)")
	if err := fs.Parse(rest); err != nil {
		return usageError{usageLine}
	}
	args := fs.Args()
	if len(args) == 0 {
		return usageError{usageLine}
	}
	sub := args[0]
	// Accept flags after the verb too (`workspace create ws -max-triples 5`).
	if err := fs.Parse(args[1:]); err != nil {
		return usageError{usageLine}
	}
	args = fs.Args()
	if len(args) > 0 {
		if err := fs.Parse(args[1:]); err != nil {
			return usageError{usageLine}
		}
		args = append(args[:1], fs.Args()...)
	}
	if o.remote == "" {
		return usageError{usageLine}
	}
	c := client.New(o.remote)
	switch sub {
	case "create":
		if len(args) != 1 {
			return usageError{"workspace create <name> [-max-triples n] [-max-wal-bytes n]"}
		}
		info, err := c.CreateWorkspace(args[0], *maxTriples, *maxWALBytes)
		if err != nil {
			return err
		}
		fmt.Printf("created workspace %q\n", info.Name)
	case "list":
		if len(args) != 0 {
			return usageError{"workspace list"}
		}
		infos, err := c.Workspaces()
		if err != nil {
			return err
		}
		fmt.Printf("  %-20s %8s %8s %9s %9s %10s %9s\n",
			"NAME", "TRIPLES", "SCHEMAS", "MAPPINGS", "SESSIONS", "WAL-BYTES", "LAST-TXN")
		for _, in := range infos {
			fmt.Printf("  %-20s %8d %8d %9d %9d %10d %9d\n",
				in.Name, in.Triples, in.Schemas, in.Mappings, in.Sessions, in.WALBytes, in.LastTxn)
		}
		fmt.Printf("%d workspaces\n", len(infos))
	case "rm":
		if len(args) != 1 {
			return usageError{"workspace rm <name>"}
		}
		resp, err := c.DeleteWorkspace(args[0])
		if err != nil {
			return err
		}
		fmt.Printf("deleted workspace %q\n", resp.Name)
	default:
		return usageError{usageLine}
	}
	return nil
}

// runMetrics dumps (or serves) the obs metrics derived from the local
// blackboard snapshot. Local-only: a service's metrics are scraped from
// its /metrics endpoint. Read-only — it never rewrites the state file.
func runMetrics(o opts, rest []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.StringVar(&o.state, "state", o.state, "blackboard snapshot file")
	fs.BoolVar(&o.asJSON, "json", o.asJSON, "JSON exposition instead of Prometheus text")
	fs.StringVar(&o.serveAddr, "serve", o.serveAddr, "serve /metrics and /healthz on this address instead of printing")
	if err := fs.Parse(rest); err != nil {
		return usageError{"metrics [-state file] [-json] [-serve addr]"}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Sprintf("metrics: unexpected argument %q", fs.Arg(0))}
	}
	if o.remote != "" {
		return usageError{fmt.Sprintf("metrics is not available in -remote mode; scrape http://%s/metrics instead", o.remote)}
	}
	bb := blackboard.New()
	if err := loadState(o.state, bb); err != nil {
		return err
	}
	// Snapshot-derived gauges complement the mutation-path metrics,
	// which only cover operations performed by this invocation.
	reg := obs.Default()
	reg.Describe("ib_schemas", "Schemata stored in the blackboard (current versions).")
	reg.Describe("ib_mappings", "Mappings stored in the blackboard library.")
	reg.Gauge("ib_schemas").Set(float64(len(bb.Schemas())))
	reg.Gauge("ib_mappings").Set(float64(len(bb.Mappings())))
	if o.serveAddr != "" {
		fmt.Fprintf(os.Stderr, "workbench: serving /metrics and /healthz on %s\n", o.serveAddr)
		return obs.Serve(o.serveAddr, reg)
	}
	if o.asJSON {
		return obs.WriteJSON(os.Stdout, reg)
	}
	return obs.WritePrometheus(os.Stdout, reg)
}

// runTrace inspects the service's request traces.
//
//	workbench -remote ADDR trace             list recent traces
//	workbench -remote ADDR trace slow [min]  completed traces at least min slow (default 250ms)
//	workbench -remote ADDR trace <id>        one trace as an indented span tree
func runTrace(c *client.Client, rest []string) error {
	if len(rest) == 0 {
		traces, err := c.Traces(0)
		if err != nil {
			return err
		}
		printTraceList(traces)
		return nil
	}
	if rest[0] == "slow" {
		min := server.DefaultSlowRequest
		if len(rest) > 1 {
			d, err := time.ParseDuration(rest[1])
			if err != nil {
				return err
			}
			min = d
		}
		traces, err := c.SlowTraces(min, 0)
		if err != nil {
			return err
		}
		printTraceList(traces)
		return nil
	}
	t, err := c.Trace(rest[0])
	if err != nil {
		return err
	}
	printTraceTree(t)
	return nil
}

func printTraceList(traces []server.TraceInfo) {
	for _, t := range traces {
		fmt.Printf("  %s  %-16s %4d spans  %8.2fms  %s\n",
			t.Trace, t.Root, len(t.Spans),
			float64(t.DurationUS)/1000, t.Start.Format(time.RFC3339))
	}
	fmt.Printf("%d traces\n", len(traces))
}

// printTraceTree renders one trace as an indented span tree: children
// under their parents, siblings in start order.
func printTraceTree(t server.TraceInfo) {
	fmt.Printf("trace %s (%.2fms", t.Trace, float64(t.DurationUS)/1000)
	if t.DroppedSpans > 0 {
		fmt.Printf(", %d spans dropped", t.DroppedSpans)
	}
	fmt.Println(")")
	children := map[string][]server.SpanInfo{}
	byID := map[string]bool{}
	for _, sp := range t.Spans {
		byID[sp.ID] = true
	}
	for _, sp := range t.Spans {
		parent := sp.Parent
		if parent != "" && !byID[parent] {
			parent = "" // orphan (parent evicted): show at top level
		}
		children[parent] = append(children[parent], sp)
	}
	var walk func(parent, indent string)
	walk = func(parent, indent string) {
		for _, sp := range children[parent] {
			line := fmt.Sprintf("%s%s (%.2fms", indent, sp.Name, float64(sp.DurationUS)/1000)
			for _, a := range sp.Attrs {
				line += fmt.Sprintf(", %s=%s", a.Key, a.Value)
			}
			if sp.Err != "" {
				line += ", err=" + sp.Err
			}
			fmt.Println(line + ")")
			walk(sp.ID, indent+"  ")
		}
	}
	walk("", "  ")
}

// runLoadgen drives the sustained-load harness against a live service
// and prints (or writes) the telemetry report.
func runLoadgen(o opts, rest []string) error {
	if o.remote == "" {
		return usageError{"loadgen requires -remote ADDR (a running `workbench serve`)"}
	}
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	workers := fs.Int("workers", 4, "concurrent clients")
	duration := fs.Duration("duration", 5*time.Second, "length of the timed mixed phase")
	seed := fs.Int64("seed", 1, "workload seed (reproducible op streams)")
	threshold := fs.Float64("threshold", server.DefaultThreshold, "match/rematch threshold")
	replica := fs.String("replica", "", "replica-read mode: seed writes via -remote, then drive the read mix against this replica address")
	workspaces := fs.Int("workspaces", 1, "multi-tenant mode: contrast 1 workspace vs this many (loadgen-multitenant report)")
	out := fs.String("out", "", "also write the JSON report (BENCH_6.json shape) to this file")
	if err := fs.Parse(rest); err != nil {
		return usageError{"loadgen [-workers n] [-duration d] [-seed n] [-threshold f] [-replica addr] [-workspaces n] [-out file]"}
	}
	rep, err := loadgen.Run(loadgen.Config{
		Addr:       o.remote,
		ReadAddr:   *replica,
		Workers:    *workers,
		Duration:   *duration,
		Seed:       *seed,
		Threshold:  *threshold,
		Workspaces: *workspaces,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if *out != "" {
		data, err := rep.WriteJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

// ---- local-only subcommands ----

// runOffline runs the subcommands no service route covers against the
// restored blackboard: column code, XQuery generation and DOT.
func runOffline(bb *blackboard.Blackboard, cmd string, rest []string) error {
	if err := rejectFlags(cmd, rest); err != nil {
		return err
	}
	switch cmd {
	case "code":
		if err := need(rest, 5, "code <id> <rowElem> <var> <colElem> <expr>"); err != nil {
			return err
		}
		mp, err := bb.GetMapping(rest[0])
		if err != nil {
			return err
		}
		if _, err := mapgen.Parse(rest[4]); err != nil {
			return err
		}
		mp.SetRowVariable(rest[1], rest[2])
		mp.SetColumnCode(rest[3], rest[4], "cli")
		fmt.Printf("column %s: %s\n", rest[3], rest[4])
	case "gen":
		if err := need(rest, 3, "gen <id> <srcEntity> <tgtEntity>"); err != nil {
			return err
		}
		mp, err := bb.GetMapping(rest[0])
		if err != nil {
			return err
		}
		prog, err := mapgen.AssembleProgram(bb, mp, rest[1], rest[2])
		if err != nil {
			return err
		}
		code := prog.GenerateXQuery()
		mp.SetCode(code, "cli")
		fmt.Println(code)
	case "dot":
		// dot <mapping-id>: render the mapping as Graphviz DOT with
		// color-coded correspondence lines (the GUI stand-in).
		if err := need(rest, 1, "dot <mapping-id>"); err != nil {
			return err
		}
		mp, err := bb.GetMapping(rest[0])
		if err != nil {
			return err
		}
		src, err := bb.GetSchema(mp.SourceSchema)
		if err != nil {
			return err
		}
		tgt, err := bb.GetSchema(mp.TargetSchema)
		if err != nil {
			return err
		}
		var cells []model.MappingDOTCell
		for _, c := range mp.Cells() {
			cells = append(cells, model.MappingDOTCell{
				SourceID: c.SourceID, TargetID: c.TargetID,
				Confidence: c.Confidence, UserDefined: c.UserDefined,
			})
		}
		fmt.Print(model.MappingToDOT(src, tgt, cells))
	}
	return nil
}

// siteStateSave is the chaos failpoint inside a local state save, after
// the new snapshot is written and before it replaces the state file.
const siteStateSave chaos.Site = "workbench.state.save"

func init() {
	chaos.RegisterSite(siteStateSave, "local state save: snapshot written, not yet renamed over the state file")
}

// loadState restores the state file into bb; a missing file leaves bb
// empty.
func loadState(path string, bb *blackboard.Blackboard) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return bb.Restore(f)
}

// saveState replaces the state file with bb's snapshot crash-safely: a
// crash or fault mid-save leaves the previous state intact.
func saveState(path string, bb *blackboard.Blackboard) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		if err := bb.Snapshot(w); err != nil {
			return err
		}
		return chaos.Inject(siteStateSave)
	})
}

// runRegistryMatch runs the registry-scale matching harness in memory —
// like sim, it never touches the state file. It prints the quality /
// scaling tables and optionally writes the BENCH_7.json report.
func runRegistryMatch(rest []string) error {
	fs := flag.NewFlagSet("registry-match", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	scale := fs.Float64("scale", 0.02, "registry scale factor for the ranking sweep")
	seed := fs.Int64("seed", 42, "generator / perturbation seed")
	k := fs.Int("k", 10, "recall@K cut for the element ranking")
	queries := fs.Int("queries", 8, "schema-ranking queries")
	sizesFlag := fs.String("sizes", "", "comma-separated per-side element counts for the scaling curve (default 600,2000,10000)")
	denseMax := fs.Int("dense-max", 2000, "largest size whose dense baseline is measured (larger ones are extrapolated)")
	noBlocking := fs.Bool("no-blocking", false, "ablation: run everything dense")
	par := fs.Int("par", 0, "engine parallelism (0 = GOMAXPROCS)")
	out := fs.String("out", "", "also write the JSON report (BENCH_7.json shape) to this file")
	if err := fs.Parse(rest); err != nil {
		return usageError{"registry-match [-scale f] [-seed n] [-k n] [-queries n] [-sizes a,b,c] [-dense-max n] [-no-blocking] [-par n] [-out file]"}
	}
	cfg := regmatch.Config{
		Scale:       *scale,
		Seed:        *seed,
		K:           *k,
		Queries:     *queries,
		DenseMax:    *denseMax,
		NoBlocking:  *noBlocking,
		Parallelism: *par,
	}
	if *sizesFlag != "" {
		for _, part := range strings.Split(*sizesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("registry-match: bad -sizes entry %q: %w", part, err)
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}
	rep, err := regmatch.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if *out != "" {
		data, err := rep.WriteJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

// runSim executes the in-memory chaos workload simulator. It never
// touches the state file: the simulated blackboard lives and dies in
// this process. Positional args override the worker/op counts.
func runSim(seed int64, spec string, rest []string) int {
	cfg := sim.Config{Seed: seed, Spec: spec}
	if len(rest) > 0 {
		n, err := strconv.Atoi(rest[0])
		if err != nil {
			return report(err)
		}
		cfg.Tools = n
	}
	if len(rest) > 1 {
		n, err := strconv.Atoi(rest[1])
		if err != nil {
			return report(err)
		}
		cfg.Ops = n
	}
	rep := sim.Run(cfg)
	fmt.Print(rep.String())
	if rep.Failed() {
		return 1
	}
	return 0
}

func usage(w *os.File) {
	fmt.Fprintln(w, `usage: workbench [-state file] [-remote addr] [-workspace ws] [-chaos-seed n] [-chaos-sites spec] <command> ...
commands: load, schemas, map, match, accept, reject, cells, code, gen, dot, query, metrics, sim, registry-match, plan, apply, serve, fsck, events, snapshot, promote, repl-status, trace, loadgen, workspace
serve flags: -addr host:port -data-dir dir -pprof -replica-of url -max-triples n -max-wal-bytes n
plan/apply flags: -config file -lock file -set name -yes -dry-run -threshold f (local or -remote)
workspace subcommands: create <name> [-max-triples n] [-max-wal-bytes n] | list | rm <name> (requires -remote)
loadgen flags: -workers n -duration d -seed n -threshold f -replica addr -workspaces n -out file (requires -remote)
registry-match flags: -scale f -seed n -k n -queries n -sizes a,b,c -dense-max n -no-blocking -par n -out file`)
}
