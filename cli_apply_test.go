package workbench

// End-to-end tests for `workbench plan` / `workbench apply`: the
// versioned schema-set workflow (DESIGN.md §17) in local mode with a
// chaos-injected rollback, and in -remote mode against a named
// workspace with kill -9 durability — the declared set and the
// analyst's pins must survive recovery.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const applyOrdersV1 = `CREATE TABLE orders (
  id     INTEGER PRIMARY KEY,
  status VARCHAR(16),
  ShipTo VARCHAR(64)
);
COMMENT ON TABLE orders IS 'Customer purchase orders';
`

const applyOrdersV2 = `CREATE TABLE orders (
  id         INTEGER PRIMARY KEY,
  status     CHAR(8),
  shipTo     VARCHAR(64),
  created_at DATE
);
COMMENT ON TABLE orders IS 'Customer purchase orders';
`

const applyShippingXSD = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="shipping">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="recipient" type="xs:string"/>
        <xs:element name="city" type="xs:string"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>
`

// writeSchemaSet lays out a schema-set working dir: the config at its
// default path plus v1 and v2 of the core set (v2 changes orders only).
func writeSchemaSet(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeSchemaSetVersion(t, dir, "v1")
	files := map[string]string{
		"sets/core/v1/orders.sql":   applyOrdersV1,
		"sets/core/v1/shipping.xsd": applyShippingXSD,
		"sets/core/v2/orders.sql":   applyOrdersV2,
		"sets/core/v2/shipping.xsd": applyShippingXSD,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// writeSchemaSetVersion pins the declared core set to a version — the
// one-string edit a real version bump is.
func writeSchemaSetVersion(t *testing.T, dir, version string) {
	t.Helper()
	cfg := fmt.Sprintf(`{
  "root": "sets",
  "sets": [
    {"name": "core", "version": %q, "schemas": ["orders.sql", "shipping.xsd"]}
  ]
}
`, version)
	if err := os.WriteFile(filepath.Join(dir, "schemasets.json"), []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCLIApplyLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := writeSchemaSet(t)

	// Plan against an empty workbench: everything is a create, and
	// planning changes nothing (no lockfile, no state file).
	out := run(t, dir, "workbench", "plan")
	if !strings.Contains(out, "set core → v1 (not locked)") || !strings.Contains(out, "plan: 2 to create, 0 to update, 0 unchanged") {
		t.Fatalf("plan v1: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "schemasets.lock.json")); !os.IsNotExist(err) {
		t.Fatal("plan wrote a lockfile")
	}

	out = run(t, dir, "workbench", "apply", "-yes")
	if !strings.Contains(out, "applied set core v1: 2 schema(s) in 1 txn(s)") || !strings.Contains(out, "wrote schemasets.lock.json") {
		t.Fatalf("apply v1: %s", out)
	}
	if !strings.Contains(run(t, dir, "workbench", "schemas"), "orders (v1)") {
		t.Fatal("apply did not store the orders schema")
	}

	// Re-applying the locked version is a no-op.
	out = run(t, dir, "workbench", "apply", "-yes")
	if !strings.Contains(out, "set core: nothing to apply") {
		t.Fatalf("idempotent apply: %s", out)
	}

	run(t, dir, "workbench", "map", "m1", "orders", "shipping")

	// Version bump: the plan names the diff, including the case-only
	// rename, before anything changes.
	writeSchemaSetVersion(t, dir, "v2")
	out = run(t, dir, "workbench", "plan")
	for _, want := range []string{
		"set core: v1 → v2",
		"~ orders (sql) update",
		"element-renamed orders/ShipTo: casing → orders/shipTo",
		"= shipping (xsd) no-op",
		"plan: 0 to create, 1 to update, 1 unchanged",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan v2 missing %q:\n%s", want, out)
		}
	}

	// A fault injected at the commit site rolls the whole apply back:
	// the blackboard keeps v1 and the lockfile is not advanced.
	out = runExpectError(t, dir, "workbench", "-chaos-sites", "apply.commit=error:n1", "apply", "-yes")
	if !strings.Contains(out, "injected") {
		t.Fatalf("chaos apply: %s", out)
	}
	if out = run(t, dir, "workbench", "plan"); !strings.Contains(out, "plan: 0 to create, 1 to update, 1 unchanged") {
		t.Fatalf("plan after rolled-back apply: %s", out)
	}

	// The real apply lands v2 and re-matches the mapping.
	out = run(t, dir, "workbench", "apply", "-yes")
	if !strings.Contains(out, "applied set core v2: 1 schema(s) in 2 txn(s)") {
		t.Fatalf("apply v2: %s", out)
	}
	if !strings.Contains(out, "rematch m1: mode=") {
		t.Fatalf("apply v2 did not re-match m1: %s", out)
	}
	if out = run(t, dir, "workbench", "plan"); !strings.Contains(out, "plan: 0 to create, 0 to update, 2 unchanged") {
		t.Fatalf("plan after v2 apply: %s", out)
	}
}

func TestCLIApplyRemoteKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := writeSchemaSet(t)
	dataDir := filepath.Join(dir, "wb-data")
	srv, addr := startServe(t, dir, dataDir)

	// Apply the set into a named workspace, not the default tenant.
	out := remote(t, dir, addr, "workspace", "create", "team-a")
	if !strings.Contains(out, `created workspace "team-a"`) {
		t.Fatalf("workspace create: %s", out)
	}
	out = remote(t, dir, addr, "-workspace", "team-a", "apply", "-yes")
	if !strings.Contains(out, "set core → v1 (not locked)") || !strings.Contains(out, "applied set core v1: 2 schema(s) in 1 txn(s)") {
		t.Fatalf("remote apply v1: %s", out)
	}
	if !strings.Contains(out, "wrote schemasets.lock.json") {
		t.Fatalf("remote apply kept no lockfile: %s", out)
	}
	// The set landed in team-a only.
	if out = remote(t, dir, addr, "-workspace", "team-a", "schemas"); !strings.Contains(out, "orders (v1)") {
		t.Fatalf("team-a schemas: %s", out)
	}
	if out = remote(t, dir, addr, "schemas"); strings.Contains(out, "orders") {
		t.Fatalf("default workspace leaked the set: %s", out)
	}

	// An analyst pins a decision, then the declared version bumps.
	remote(t, dir, addr, "-workspace", "team-a", "map", "m1", "orders", "shipping")
	remote(t, dir, addr, "-workspace", "team-a", "accept", "m1", "orders/orders/status", "shipping/shipping/recipient")
	writeSchemaSetVersion(t, dir, "v2")
	out = remote(t, dir, addr, "-workspace", "team-a", "apply", "-yes")
	for _, want := range []string{
		"set core: v1 → v2",
		"element-renamed orders/ShipTo: casing → orders/shipTo",
		"applied set core v2: 1 schema(s) in 2 txn(s)",
		"rematch m1: mode=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("remote apply v2 missing %q:\n%s", want, out)
		}
	}

	// kill -9: durability must come from the WAL alone.
	if err := srv.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	srv.Wait()
	_, addr2 := startServe(t, dir, dataDir)

	// The applied set survived recovery: both schemas, the v2 content,
	// and the analyst's pin.
	out = remote(t, dir, addr2, "-workspace", "team-a", "schemas")
	if !strings.Contains(out, "orders (v2)") || !strings.Contains(out, "shipping (v1)") {
		t.Fatalf("schemas after kill -9: %s", out)
	}
	out = remote(t, dir, addr2, "-workspace", "team-a", "cells", "m1")
	if !strings.Contains(out, "+1.00 (user, by remote)") {
		t.Fatalf("pin lost across kill -9: %s", out)
	}

	// The recovered blackboard matches the lockfile exactly: plan and
	// apply both report nothing to do.
	out = remote(t, dir, addr2, "-workspace", "team-a", "plan")
	if !strings.Contains(out, "plan: 0 to create, 0 to update, 2 unchanged") {
		t.Fatalf("plan after recovery: %s", out)
	}
	out = remote(t, dir, addr2, "-workspace", "team-a", "apply", "-yes")
	if !strings.Contains(out, "set core: nothing to apply") {
		t.Fatalf("apply after recovery: %s", out)
	}
}
