package schemaset

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/atomicfile"
)

// Lockfile records what a prior apply put on the blackboard: for every
// set, the applied version and each schema's content hash
// (harmony.SchemaHash — the same fnv-1a digest the match cache
// revisions on). Plan compares three states — declared files, lockfile,
// blackboard — so it can distinguish a version bump (declared ≠ lock)
// from out-of-band drift (blackboard ≠ lock). The serialized form is
// byte-stable: sets and schemas sorted by name, two-space indent,
// trailing newline — so lockfiles diff cleanly under version control.
type Lockfile struct {
	Sets []LockSet `json:"sets"`
}

// LockSet is one set's locked state.
type LockSet struct {
	Name    string       `json:"name"`
	Version string       `json:"version"`
	Schemas []LockSchema `json:"schemas"`
}

// LockSchema pins one schema's content.
type LockSchema struct {
	Name   string `json:"name"`
	Format string `json:"format"`
	// Hash is the 16-hex-digit whole-schema content hash.
	Hash string `json:"hash"`
}

// Set returns the lock entry for a set name, or nil.
func (l *Lockfile) Set(name string) *LockSet {
	for i := range l.Sets {
		if l.Sets[i].Name == name {
			return &l.Sets[i]
		}
	}
	return nil
}

// Schema returns a lock set's entry for a schema name, or nil.
func (ls *LockSet) Schema(name string) *LockSchema {
	for i := range ls.Schemas {
		if ls.Schemas[i].Name == name {
			return &ls.Schemas[i]
		}
	}
	return nil
}

// Upsert replaces (or inserts) one set's lock entry, keeping the
// lockfile's canonical sort order.
func (l *Lockfile) Upsert(ls LockSet) {
	sort.Slice(ls.Schemas, func(i, j int) bool { return ls.Schemas[i].Name < ls.Schemas[j].Name })
	for i := range l.Sets {
		if l.Sets[i].Name == ls.Name {
			l.Sets[i] = ls
			return
		}
	}
	l.Sets = append(l.Sets, ls)
	sort.Slice(l.Sets, func(i, j int) bool { return l.Sets[i].Name < l.Sets[j].Name })
}

// validHash reports whether s is a 16-digit lowercase hex string — the
// exact shape harmony.SchemaHash emits.
func validHash(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Validate checks lock entries for structural sanity: unique path-safe
// names, known formats, and well-formed content hashes.
func (l *Lockfile) Validate() error {
	seen := map[string]bool{}
	for i := range l.Sets {
		ls := &l.Sets[i]
		if err := safeSegment(ls.Name); err != nil {
			return fmt.Errorf("schemaset: lock set name: %v", err)
		}
		if seen[ls.Name] {
			return fmt.Errorf("schemaset: lockfile: duplicate set %q", ls.Name)
		}
		seen[ls.Name] = true
		if ls.Version == "" {
			return fmt.Errorf("schemaset: lockfile: set %q has no version", ls.Name)
		}
		names := map[string]bool{}
		for _, sc := range ls.Schemas {
			if err := safeSegment(sc.Name); err != nil {
				return fmt.Errorf("schemaset: lockfile set %q: %v", ls.Name, err)
			}
			if names[sc.Name] {
				return fmt.Errorf("schemaset: lockfile set %q: duplicate schema %q", ls.Name, sc.Name)
			}
			names[sc.Name] = true
			switch sc.Format {
			case "xsd", "sql", "er":
			default:
				return fmt.Errorf("schemaset: lockfile set %q schema %q: unknown format %q", ls.Name, sc.Name, sc.Format)
			}
			if !validHash(sc.Hash) {
				return fmt.Errorf("schemaset: lockfile set %q schema %q: malformed hash %q", ls.Name, sc.Name, sc.Hash)
			}
		}
	}
	return nil
}

// ParseLockfile decodes and validates a lockfile. Unknown fields are
// rejected; malformed input returns an error, never panics.
func ParseLockfile(data []byte) (*Lockfile, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var l Lockfile
	if err := dec.Decode(&l); err != nil {
		return nil, fmt.Errorf("schemaset: parse lockfile: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("schemaset: parse lockfile: trailing data after JSON object")
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &l, nil
}

// LoadLockfile reads a lockfile from disk. A missing file is not an
// error: it returns an empty lockfile, the state before any apply.
func LoadLockfile(path string) (*Lockfile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Lockfile{}, nil
	}
	if err != nil {
		return nil, err
	}
	l, err := ParseLockfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return l, nil
}

// Marshal renders the canonical byte-stable form: sets and schemas
// sorted by name, two-space indent, trailing newline. Marshal→Parse→
// Marshal is the identity on the bytes.
func (l *Lockfile) Marshal() []byte {
	c := Lockfile{Sets: append([]LockSet(nil), l.Sets...)}
	for i := range c.Sets {
		c.Sets[i].Schemas = append([]LockSchema(nil), c.Sets[i].Schemas...)
		sort.Slice(c.Sets[i].Schemas, func(a, b int) bool {
			return c.Sets[i].Schemas[a].Name < c.Sets[i].Schemas[b].Name
		})
	}
	sort.Slice(c.Sets, func(i, j int) bool { return c.Sets[i].Name < c.Sets[j].Name })
	if c.Sets == nil {
		c.Sets = []LockSet{}
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		// Lockfile holds only strings and slices; MarshalIndent cannot
		// fail on it.
		panic(err)
	}
	return append(data, '\n')
}

// WriteLockfile replaces the lockfile on disk crash-safely
// (atomicfile.Write), so a crash mid-write never leaves a half-written
// lock.
func WriteLockfile(path string, l *Lockfile) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(l.Marshal())
		return err
	})
}
