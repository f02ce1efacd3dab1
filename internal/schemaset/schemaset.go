// Package schemaset implements versioned schema sets: a declarative
// config declaring named sets of schema files pinned to a version, a
// lockfile recording per-schema content hashes, and a diff-then-confirm
// apply workflow that upgrades the blackboard to a declared version as
// one transaction driving an incremental re-match.
//
// Real organisations pin schema *sets* to versions and upgrade them
// deliberately across many concurrent projects (PAPERS.md, "The Role of
// Schema Matching in Large Enterprises"). The config is plain JSON:
//
//	{
//	  "root": "schemas",
//	  "sets": [
//	    {"name": "core", "version": "v1", "schemas": ["po.xsd", "orders.sql"]}
//	  ]
//	}
//
// Each set resolves its files from <root>/<set>/<version>/<file>, so a
// version bump is an edit to one string and the old version's files stay
// on disk. The lockfile (Lockfile) records what was last applied —
// per-schema fnv-1a content hashes (harmony.SchemaHash, the same digest
// the match cache revisions on) — so plan can tell "nothing changed",
// "declared version changed", and "someone changed the blackboard
// behind the lockfile's back" apart. See DESIGN.md §17.
package schemaset

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/erwin"
	"repro/internal/model"
	"repro/internal/sqlddl"
	"repro/internal/xmlschema"
)

// Config is the parsed schema-set declaration (schemasets.json).
type Config struct {
	// Root is the directory holding the versioned set directories,
	// resolved against the config file's directory by LoadConfig.
	// Empty means the config file's own directory.
	Root string `json:"root,omitempty"`
	// Sets are the declared schema sets, unique by name.
	Sets []Set `json:"sets"`
}

// Set declares one named schema set pinned to a version.
type Set struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	// Schemas lists the set's schema file names (not paths): each
	// resolves to <root>/<name>/<version>/<file> and its extension
	// picks the loader (.xsd/.xml, .sql/.ddl, .er).
	Schemas []string `json:"schemas"`
}

// Set returns the named set, or nil.
func (c *Config) Set(name string) *Set {
	for i := range c.Sets {
		if c.Sets[i].Name == name {
			return &c.Sets[i]
		}
	}
	return nil
}

// safeSegment rejects names that would escape the schema root when
// joined into a path: empty strings, path separators, and dot-dirs.
func safeSegment(s string) error {
	if s == "" {
		return fmt.Errorf("empty name")
	}
	if strings.ContainsAny(s, `/\`) || s == "." || s == ".." {
		return fmt.Errorf("%q must be a bare name, not a path", s)
	}
	return nil
}

// SchemaNameFormat derives the blackboard schema name (file stem) and
// format from a schema file name, as ParseSchema takes them.
func SchemaNameFormat(file string) (name, format string, err error) {
	ext := strings.ToLower(filepath.Ext(file))
	name = strings.TrimSuffix(filepath.Base(file), filepath.Ext(file))
	switch ext {
	case ".xsd", ".xml":
		return name, "xsd", nil
	case ".sql", ".ddl":
		return name, "sql", nil
	case ".er":
		return name, "er", nil
	default:
		return "", "", fmt.Errorf("unknown schema extension on %q (want .xsd/.xml, .sql/.ddl or .er)", file)
	}
}

// ParseSchema parses schema text in the given format (xsd/xml, sql/ddl
// or er, any case) into a schema named name, surrounding space trimmed.
// It is the one format dispatch: the CLIs, the server's load and apply
// routes and LoadSet all parse through it.
func ParseSchema(name, format string, r io.Reader) (*model.Schema, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return nil, fmt.Errorf("schema name required")
	}
	switch strings.ToLower(format) {
	case "xsd", "xml":
		return xmlschema.Load(name, r)
	case "sql", "ddl":
		return sqlddl.Load(name, r)
	case "er":
		return erwin.Load(name, r)
	default:
		return nil, fmt.Errorf("unknown schema format %q (want xsd, sql or er)", format)
	}
}

// Validate checks the declaration's internal consistency: unique
// path-safe set names, non-empty versions, and per-set schema lists
// with known extensions and unique stems (the stem is the blackboard
// schema name, so a collision inside one set would silently overwrite).
func (c *Config) Validate() error {
	if len(c.Sets) == 0 {
		return fmt.Errorf("schemaset: config declares no sets")
	}
	seen := map[string]bool{}
	for i := range c.Sets {
		s := &c.Sets[i]
		if err := safeSegment(s.Name); err != nil {
			return fmt.Errorf("schemaset: set name: %v", err)
		}
		if seen[s.Name] {
			return fmt.Errorf("schemaset: duplicate set %q", s.Name)
		}
		seen[s.Name] = true
		if err := safeSegment(s.Version); err != nil {
			return fmt.Errorf("schemaset: set %q version: %v", s.Name, err)
		}
		if len(s.Schemas) == 0 {
			return fmt.Errorf("schemaset: set %q declares no schemas", s.Name)
		}
		stems := map[string]string{}
		for _, f := range s.Schemas {
			if err := safeSegment(f); err != nil {
				return fmt.Errorf("schemaset: set %q schema: %v", s.Name, err)
			}
			stem, _, err := SchemaNameFormat(f)
			if err != nil {
				return fmt.Errorf("schemaset: set %q: %v", s.Name, err)
			}
			if prev, ok := stems[stem]; ok {
				return fmt.Errorf("schemaset: set %q: %q and %q both load as schema %q", s.Name, prev, f, stem)
			}
			stems[stem] = f
		}
	}
	return nil
}

// ParseConfig decodes and validates a schema-set declaration. Unknown
// fields are rejected so a typo'd key fails loudly instead of silently
// declaring nothing. Malformed input returns an error, never panics.
func ParseConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("schemaset: parse config: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("schemaset: parse config: trailing data after JSON object")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadConfig reads a config file and resolves its Root against the
// file's directory, so a config is addressable from any working dir.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := ParseConfig(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if !filepath.IsAbs(c.Root) {
		c.Root = filepath.Join(filepath.Dir(path), c.Root)
	}
	return c, nil
}

// LoadSet parses every schema file a set declares, in declaration
// order, from <root>/<set>/<version>/<file>. Schema names are the file
// stems, matching what `workbench load` would have stored.
func LoadSet(root string, s *Set) ([]*model.Schema, error) {
	var out []*model.Schema
	for _, f := range s.Schemas {
		name, format, err := SchemaNameFormat(f)
		if err != nil {
			return nil, fmt.Errorf("schemaset: set %q: %v", s.Name, err)
		}
		path := filepath.Join(root, s.Name, s.Version, f)
		fh, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("schemaset: set %q %s: %v", s.Name, s.Version, err)
		}
		sch, err := ParseSchema(name, format, fh)
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("schemaset: %s: %v", path, err)
		}
		out = append(out, sch)
	}
	return out, nil
}

// SetNames returns the declared set names sorted, for deterministic
// "apply everything" iteration.
func (c *Config) SetNames() []string {
	names := make([]string, 0, len(c.Sets))
	for i := range c.Sets {
		names = append(names, c.Sets[i].Name)
	}
	sort.Strings(names)
	return names
}
