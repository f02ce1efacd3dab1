package main

// The plan/apply subcommands: versioned schema sets with a lockfile and
// a diff-then-confirm evolution workflow (DESIGN.md §17). `plan` shows
// what apply would change; `apply` shows the plan, asks (unless -yes),
// puts every changed schema as one transaction, re-matches affected
// mappings incrementally, and records the applied hashes in the
// lockfile. The diffing and matching run in the service (the -remote
// one, or local mode's in-process one); the config, schema files and
// lockfile stay client-side.

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/client"
	"repro/internal/schemaset"
	"repro/internal/server"
)

// runSchemaSet plans or applies the declared sets through c: a dry-run
// request renders the service-computed plan, and after confirmation the
// same request re-runs for real.
func runSchemaSet(c *client.Client, cmd string, rest []string) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	config := fs.String("config", "schemasets.json", "schema-set declaration file")
	lockPath := fs.String("lock", "", "lockfile path (default: <config stem>.lock.json)")
	setName := fs.String("set", "", "plan/apply only this set (default: every declared set)")
	yes := fs.Bool("yes", false, "apply: skip the confirmation prompt")
	dryRun := fs.Bool("dry-run", false, "apply: print the plan and change nothing (alias of plan)")
	threshold := fs.Float64("threshold", server.DefaultThreshold, "publish threshold for the re-match")
	if err := fs.Parse(rest); err != nil {
		return usageError{cmd + " [-config file] [-lock file] [-set name] [-yes] [-dry-run] [-threshold f]"}
	}
	if len(fs.Args()) != 0 {
		return usageError{cmd + ": unexpected argument " + fs.Args()[0]}
	}
	if *lockPath == "" {
		*lockPath = strings.TrimSuffix(*config, filepath.Ext(*config)) + ".lock.json"
	}
	cfg, err := schemaset.LoadConfig(*config)
	if err != nil {
		return err
	}
	lock, err := schemaset.LoadLockfile(*lockPath)
	if err != nil {
		return err
	}
	var sets []*schemaset.Set
	if *setName != "" {
		s := cfg.Set(*setName)
		if s == nil {
			return fmt.Errorf("%s: no set %q declared in %s", cmd, *setName, *config)
		}
		sets = append(sets, s)
	} else {
		for _, name := range cfg.SetNames() {
			sets = append(sets, cfg.Set(name))
		}
	}
	planOnly := cmd == "plan" || *dryRun
	for _, set := range sets {
		req, err := applyRequestFor(cfg, set, lock, *threshold)
		if err != nil {
			return err
		}
		req.DryRun = true
		resp, err := c.Apply(req)
		if err != nil {
			return err
		}
		fmt.Print(resp.PlanText)
		if planOnly {
			continue
		}
		if resp.NoOp {
			fmt.Printf("set %s: nothing to apply\n", set.Name)
			lock.Upsert(lockSetFromPlan(set, resp))
			continue
		}
		if !*yes && !confirmApply() {
			fmt.Println("apply aborted; no changes made")
			return nil
		}
		req.DryRun = false
		resp, err = c.Apply(req)
		if err != nil {
			return err
		}
		fmt.Printf("applied set %s %s: %d schema(s) in %d txn(s)\n",
			set.Name, set.Version, len(resp.Applied), resp.Txns)
		for _, rm := range resp.Rematches {
			fmt.Printf("  rematch %s: mode=%s published=%d\n", rm.Mapping, rm.Mode, rm.Published)
		}
		lock.Upsert(lockSetFromPlan(set, resp))
	}
	if planOnly {
		return nil
	}
	if err := schemaset.WriteLockfile(*lockPath, lock); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *lockPath)
	return nil
}

// confirmApply asks on stdout and reads one stdin line; anything but an
// explicit yes declines.
func confirmApply() bool {
	fmt.Print("apply these changes? [y/N]: ")
	line, _ := bufio.NewReader(os.Stdin).ReadString('\n')
	line = strings.ToLower(strings.TrimSpace(line))
	return line == "y" || line == "yes"
}

// applyRequestFor builds the wire request for one set: raw schema texts
// plus the client lockfile entry for server-side drift detection.
func applyRequestFor(cfg *schemaset.Config, set *schemaset.Set, lock *schemaset.Lockfile, threshold float64) (server.ApplyRequest, error) {
	req := server.ApplyRequest{Set: set.Name, Version: set.Version, Threshold: &threshold}
	for _, f := range set.Schemas {
		name, format, err := schemaset.SchemaNameFormat(f)
		if err != nil {
			return req, err
		}
		data, err := os.ReadFile(filepath.Join(cfg.Root, set.Name, set.Version, f))
		if err != nil {
			return req, err
		}
		req.Schemas = append(req.Schemas, server.ApplySchema{Name: name, Format: format, Text: string(data)})
	}
	if ls := lock.Set(set.Name); ls != nil {
		req.LockVersion = ls.Version
		req.LockHashes = map[string]string{}
		for _, sc := range ls.Schemas {
			req.LockHashes[sc.Name] = sc.Hash
		}
	}
	return req, nil
}

// lockSetFromPlan converts a server plan response into the lock entry
// to record: every declared schema at its declared hash.
func lockSetFromPlan(set *schemaset.Set, resp server.ApplyResponse) schemaset.LockSet {
	ls := schemaset.LockSet{Name: set.Name, Version: set.Version}
	for _, row := range resp.Plan {
		ls.Schemas = append(ls.Schemas, schemaset.LockSchema{Name: row.Name, Format: row.Format, Hash: row.Hash})
	}
	return ls
}
