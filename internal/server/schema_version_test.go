package server_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
)

// getSchema fetches GET /v1/schemas/{name}.
func getSchema(t *testing.T, c *client.Client, name string) server.SchemaInfo {
	t.Helper()
	resp, err := http.Get(c.BaseURL() + "/v1/schemas/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/schemas/%s: %s", name, resp.Status)
	}
	var info server.SchemaInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestServerServesArchivedSchemaVersion: after a re-put, GET
// /v1/schemas/{name}@v1 serves the archived version, also after a
// restart that replays the re-put from the log.
func TestServerServesArchivedSchemaVersion(t *testing.T) {
	dir := t.TempDir()
	c, _ := startServer(t, dir, false)
	v1, err := c.LoadSchema("orders", "sql", `CREATE TABLE orders (id INT PRIMARY KEY, total DECIMAL);`)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.LoadSchema("orders", "sql", `CREATE TABLE orders (id INT PRIMARY KEY, amount DECIMAL, created DATE);`)
	if err != nil || v2.Version != 2 || v2.Elements == v1.Elements {
		t.Fatalf("re-put = %+v, %v (first put %+v)", v2, err, v1)
	}
	want := server.SchemaInfo{Name: "orders@v1", Version: 1, Elements: v1.Elements}
	if got := getSchema(t, c, "orders@v1"); got != want {
		t.Fatalf("GET orders@v1 = %+v, want %+v", got, want)
	}
	c2, _ := startServer(t, dir, true)
	if got := getSchema(t, c2, "orders@v1"); got != want {
		t.Fatalf("GET orders@v1 after restart = %+v, want %+v", got, want)
	}
	if got := getSchema(t, c2, "orders"); got != v2 {
		t.Fatalf("GET orders after restart = %+v, want %+v", got, v2)
	}
}

// TestServerQuotedIdentifiersSurviveRestart loads SQL whose quoted
// identifiers put spaces into element IRIs, and recovers it from the
// log.
func TestServerQuotedIdentifiersSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	c, _ := startServer(t, dir, false)
	info, err := c.LoadSchema("lines", "sql", `CREATE TABLE "Order Lines" ("line no" INT, "qty > 0" INT);`)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := startServer(t, dir, true)
	if got := getSchema(t, c2, "lines"); got != info {
		t.Fatalf("GET lines after restart = %+v, want %+v", got, info)
	}
}
