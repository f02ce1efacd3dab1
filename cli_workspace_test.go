package workbench

// CLI tests for the multi-tenant surface (`workspace` subcommand, the
// -workspace flag) and the flag-placement contract: every subcommand
// either honors a flag that trails it or rejects it with a usage error
// — no subcommand silently ignores one.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIFlagPlacement pins the trailing-flag policy per subcommand.
// The failure mode this guards against is silent: `workbench fsck
// -data-dir X` parsing -data-dir as nothing and running against the
// default state would "succeed" while auditing the wrong store.
func TestCLIFlagPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := filepath.Join(buildCLIs(t), "workbench")

	// A real data dir so fsck's trailing -data-dir observably binds.
	dataDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		// exit 0 = flag honored and command ran; exit 1 = flag honored
		// and the command failed operationally (e.g. dead address — proof
		// the flag bound); exit 2 = usage error (flag rejected loudly).
		wantExit int
		wantOut  string // substring of combined output
	}{
		{"fsck trailing data-dir honored", []string{"fsck", "-data-dir", dataDir}, 0, "fsck: clean"},
		{"fsck trailing remote honored", []string{"fsck", "-remote", "127.0.0.1:1"}, 1, ""},
		{"fsck unknown flag rejected", []string{"fsck", "-bogus"}, 2, "usage"},
		{"serve unknown flag rejected", []string{"serve", "-bogus"}, 2, ""},
		{"promote trailing remote honored", []string{"promote", "-remote", "127.0.0.1:1"}, 1, ""},
		{"promote without remote rejected", []string{"promote"}, 2, "-remote"},
		{"trace trailing remote honored", []string{"trace", "-remote", "127.0.0.1:1"}, 1, ""},
		{"trace unknown flag rejected", []string{"trace", "-bogus"}, 2, ""},
		{"metrics trailing json honored", []string{"metrics", "-json"}, 0, "{"},
		{"metrics unknown flag rejected", []string{"metrics", "-bogus"}, 2, ""},
		{"metrics remote mode rejected", []string{"-remote", "127.0.0.1:1", "metrics"}, 2, "/metrics"},
		{"workspace trailing remote honored", []string{"workspace", "list", "-remote", "127.0.0.1:1"}, 1, ""},
		{"workspace unknown flag rejected", []string{"workspace", "list", "-bogus"}, 2, "usage"},
		{"workspace without remote rejected", []string{"workspace", "list"}, 2, "-remote"},
		{"events without remote rejected", []string{"events"}, 2, "-remote"},
		{"snapshot without remote rejected", []string{"snapshot"}, 2, "-remote"},
		{"repl-status without remote rejected", []string{"repl-status"}, 2, "-remote"},
		{"loadgen trailing workers honored", []string{"-remote", "127.0.0.1:1", "loadgen", "-workers", "1", "-duration", "1ms"}, 1, ""},
		{"loadgen unknown flag rejected", []string{"-remote", "127.0.0.1:1", "loadgen", "-bogus"}, 2, "usage"},
		// Fixed-arity data subcommands reject trailing flags by name.
		{"load trailing flag rejected", []string{"load", "-remote", "127.0.0.1:1"}, 2, "must come before the subcommand"},
		{"schemas trailing flag rejected", []string{"schemas", "-workspace", "x"}, 2, "must come before the subcommand"},
		{"query trailing flag rejected", []string{"-remote", "127.0.0.1:1", "query", "-state", "x"}, 2, "must come before the subcommand"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			cmd.Dir = dir
			out, _ := cmd.CombinedOutput()
			if got := cmd.ProcessState.ExitCode(); got != tc.wantExit {
				t.Fatalf("workbench %v: exit %d, want %d\n%s", tc.args, got, tc.wantExit, out)
			}
			if tc.wantOut != "" && !strings.Contains(string(out), tc.wantOut) {
				t.Fatalf("workbench %v: output missing %q:\n%s", tc.args, tc.wantOut, out)
			}
		})
	}
}

func TestWorkspaceCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "po.xsd"), []byte(cliPOXSD), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(dir, "wal")
	_, addr := startServe(t, dir, dataDir)

	out := remote(t, dir, addr, "workspace", "create", "team-a", "-max-triples", "500")
	if !strings.Contains(out, `created workspace "team-a"`) {
		t.Fatalf("workspace create: %s", out)
	}

	// Loads route by the -workspace flag; listings stay disjoint.
	remote(t, dir, addr, "-workspace", "team-a", "load", "po.xsd")
	teamSchemas := run(t, dir, "workbench", "-remote", addr, "-workspace", "team-a", "schemas")
	if !strings.Contains(teamSchemas, "po") {
		t.Fatalf("team-a schemas: %s", teamSchemas)
	}
	defSchemas := remote(t, dir, addr, "schemas")
	if strings.Contains(defSchemas, "po") {
		t.Fatalf("default workspace leaked team-a's schema: %s", defSchemas)
	}

	list := remote(t, dir, addr, "workspace", "list")
	for _, want := range []string{"NAME", "default", "team-a", "2 workspaces"} {
		if !strings.Contains(list, want) {
			t.Fatalf("workspace list missing %q:\n%s", want, list)
		}
	}

	// fsck scoped to a tenant names it in the report.
	fsck := remote(t, dir, addr, "-workspace", "team-a", "fsck")
	if !strings.Contains(fsck, "fsck: clean") {
		t.Fatalf("tenant fsck: %s", fsck)
	}

	// The default workspace is not deletable; a tenant is.
	errOut := runExpectError(t, dir, "workbench", "-remote", addr, "workspace", "rm", "default")
	if !strings.Contains(errOut, "cannot be deleted") {
		t.Fatalf("rm default: %s", errOut)
	}
	if out := remote(t, dir, addr, "workspace", "rm", "team-a"); !strings.Contains(out, `deleted workspace "team-a"`) {
		t.Fatalf("rm team-a: %s", out)
	}
	errOut = runExpectError(t, dir, "workbench", "-remote", addr, "-workspace", "team-a", "schemas")
	if !strings.Contains(errOut, "not found") {
		t.Fatalf("deleted workspace still serves: %s", errOut)
	}
}

func TestOfflineFsckWalksPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "po.xsd"), []byte(cliPOXSD), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(dir, "wal")
	srv, addr := startServe(t, dir, dataDir)

	remote(t, dir, addr, "workspace", "create", "team-a")
	remote(t, dir, addr, "-workspace", "team-a", "load", "po.xsd")
	remote(t, dir, addr, "load", "po.xsd")

	srv.Process.Kill()
	srv.Wait()

	// Offline fsck audits every partition, naming each.
	out := run(t, dir, "workbench", "fsck", "-data-dir", dataDir)
	for _, want := range []string{"recovery: [default]", "recovery: [team-a]", "fsck: clean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("offline fsck missing %q:\n%s", want, out)
		}
	}
}
