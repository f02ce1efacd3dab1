package server_test

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/harmony"
	"repro/internal/server"
)

// TestCacheIndexHoldsLiveVersionsPerWorkspace pins what a workspace's
// score-matrix cache index holds: one version per live mapping engine.
// Each schema re-load and rematch replaces the seven entries the
// mapping's engine held (six voter matrices and the merged entry), a
// new mapping over the current pair shares all seven, and another
// workspace loading the same pair shares nothing.
func TestCacheIndexHoldsLiveVersionsPerWorkspace(t *testing.T) {
	c, _ := startServer(t, "", false)
	id := loadPair(t, c)
	if _, err := c.Match(id, 0.2); err != nil {
		t.Fatalf("Match: %v", err)
	}
	rematch := func(c *client.Client, id string) server.RematchResponse {
		t.Helper()
		re, err := c.Rematch(id, 0.2, nil, nil)
		if err != nil {
			t.Fatalf("Rematch %s: %v", id, err)
		}
		return re
	}
	prev := rematch(c, id).Cache
	if prev.Entries != 7 || prev.Hits != 0 || prev.Misses != 7 || prev.Evictions != 0 {
		t.Fatalf("after the cold match: cache %+v; want 7 entries, 0 hits, 7 misses, 0 evictions", prev)
	}

	text := schemaText(t, "purchaseOrder.xsd")
	for _, name := range []string{"firstName", "lastName", "subtotal"} {
		edited := strings.Replace(text, `"`+name+`"`, `"`+name+`Edited"`, 1)
		if edited == text {
			t.Fatalf("rename of %s did not apply", name)
		}
		text = edited
		if _, err := c.LoadSchema("po", "xsd", text); err != nil {
			t.Fatalf("LoadSchema (%s renamed): %v", name, err)
		}
		re := rematch(c, id)
		if re.Mode != harmony.RematchIncremental && re.Mode != harmony.RematchCorpus {
			t.Fatalf("%s renamed: mode %q; want incremental or corpus", name, re.Mode)
		}
		if re.Cache.Entries != 7 || re.Cache.Evictions != prev.Evictions+7 {
			t.Fatalf("%s renamed: cache %+v; want 7 entries and 7 more evictions than %d",
				name, re.Cache, prev.Evictions)
		}
		prev = re.Cache
	}

	// A second mapping over the current pair shares m1's matrices.
	if _, err := c.NewMapping("m2", "po", "si"); err != nil {
		t.Fatalf("NewMapping m2: %v", err)
	}
	re := rematch(c, "m2")
	if re.Mode != harmony.RematchCold || re.Cache.Hits != prev.Hits+7 || re.Cache.Misses != prev.Misses || re.Cache.Entries != 7 {
		t.Fatalf("m2: mode %q, cache %+v; want cold with 7 more hits than %+v and 7 entries", re.Mode, re.Cache, prev)
	}

	// Another workspace loading the same pair has an index of its own.
	if _, err := c.CreateWorkspace("other", 0, 0); err != nil {
		t.Fatalf("CreateWorkspace: %v", err)
	}
	oc := c.ForWorkspace("other")
	if _, err := oc.LoadSchema("po", "xsd", text); err != nil {
		t.Fatalf("LoadSchema po in other: %v", err)
	}
	if _, err := oc.LoadSchema("si", "xsd", schemaText(t, "shippingInfo.xsd")); err != nil {
		t.Fatalf("LoadSchema si in other: %v", err)
	}
	if _, err := oc.NewMapping("m1", "po", "si"); err != nil {
		t.Fatalf("NewMapping in other: %v", err)
	}
	re = rematch(oc, "m1")
	if re.Mode != harmony.RematchCold || re.Cache.Hits != 0 || re.Cache.Misses != 7 || re.Cache.Entries != 7 {
		t.Fatalf("other workspace: mode %q, cache %+v; want cold with 0 hits, 7 misses, 7 entries", re.Mode, re.Cache)
	}
}
