// Package blackboard implements the integration blackboard (IB) of paper
// §5.1: "a shared repository for information relevant to schema
// integration ... including schemata, mappings, and their component
// elements", represented in RDF. Schemata are stored as labeled graphs
// (§5.1.1) and inter-schema relationships as annotated mapping matrices
// (§5.1.2), using the paper's controlled vocabulary: confidence-score,
// is-user-defined, variable-name, code and is-complete.
//
// The §5.1.3 enhancements are implemented too: schema versioning, mapping
// provenance, a mapping library, shared focus context, and snapshot
// export/import as the stand-in for cross-workbench sharing.
package blackboard

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// Metric names emitted by the blackboard (see DESIGN.md "Observability").
const (
	// MetricTriples gauges the IB's current triple count. With several
	// blackboards sharing one registry the last writer wins; give each
	// its own registry via SetMetrics to separate them.
	MetricTriples = "ib_triples"
	// MetricRevisions counts IB mutations (the provenance counter).
	MetricRevisions = "ib_revisions_total"
)

// Chaos failpoint sites threaded through the blackboard's multi-triple
// mutation paths (see DESIGN.md "Fault model"). Each sits mid-write so
// that an injected fault exercises the savepoint rollback.
const (
	SitePutSchema     chaos.Site = "blackboard.putschema"
	SiteSetCell       chaos.Site = "blackboard.setcell"
	SiteDeleteMapping chaos.Site = "blackboard.deletemapping"
)

func init() {
	chaos.RegisterSite(SitePutSchema, "mid-write in Blackboard.PutSchema, after archival")
	chaos.RegisterSite(SiteSetCell, "mid-write in Mapping.SetCell, after node creation")
	chaos.RegisterSite(SiteDeleteMapping, "mid-delete in Blackboard.DeleteMapping")
}

// Controlled vocabulary for the mapping portion of the IB (§5.1.2).
const wbNS = "urn:workbench:"

var (
	classMapping = rdf.IRI(wbNS + "MappingMatrix")
	classCell    = rdf.IRI(wbNS + "MappingCell")
	classRow     = rdf.IRI(wbNS + "MappingRow")
	classColumn  = rdf.IRI(wbNS + "MappingColumn")

	predSourceSchema = rdf.IRI(wbNS + "source-schema")
	predTargetSchema = rdf.IRI(wbNS + "target-schema")
	predHasCell      = rdf.IRI(wbNS + "has-cell")
	predHasRow       = rdf.IRI(wbNS + "has-row")
	predHasColumn    = rdf.IRI(wbNS + "has-column")
	predRowElem      = rdf.IRI(wbNS + "row-element")
	predColElem      = rdf.IRI(wbNS + "column-element")
	predCellRow      = rdf.IRI(wbNS + "cell-row")
	predCellCol      = rdf.IRI(wbNS + "cell-column")

	predConfidence  = rdf.IRI(wbNS + "confidence-score")
	predUserDefined = rdf.IRI(wbNS + "is-user-defined")
	predVariable    = rdf.IRI(wbNS + "variable-name")
	predCode        = rdf.IRI(wbNS + "code")
	predComplete    = rdf.IRI(wbNS + "is-complete")

	predVersion    = rdf.IRI(wbNS + "version")
	predArchivedAs = rdf.IRI(wbNS + "archived-as")
	predSetBy      = rdf.IRI(wbNS + "set-by")
	predRevision   = rdf.IRI(wbNS + "revision")
	predFocus      = rdf.IRI(wbNS + "focus-subtree")
)

// Blackboard is the shared knowledge repository. It is not itself
// transactional: the workbench manager (package wbmgr) provides
// transactions, events and locking on top.
type Blackboard struct {
	g *rdf.Graph
	// revision counts mutations for provenance ordering. It is atomic so
	// that concurrent readers (tools observing progress while another
	// tool's transaction writes) never race; it is monotonic — rollbacks
	// restore the triple set but never rewind the revision counter.
	revision atomic.Int64
	// triples and revs are cached metric handles (atomic updates; cached
	// so the per-mutation cost is one gauge store, not a map lookup).
	triples *obs.Gauge
	revs    *obs.Counter
	// tables holds the mappings' cell tables (table.go).
	tables cellTables
}

// New returns an empty blackboard instrumented on obs.Default().
func New() *Blackboard {
	return NewFromGraph(rdf.NewGraph())
}

// NewFromGraph wraps an existing RDF graph — typically one recovered by
// the write-ahead log store — as a blackboard. A nil graph yields an
// empty blackboard. The revision counter resumes past every revision
// the graph stores.
func NewFromGraph(g *rdf.Graph) *Blackboard {
	if g == nil {
		g = rdf.NewGraph()
	}
	b := &Blackboard{g: g}
	b.SetMetrics(obs.Default())
	b.ResumeRevision()
	return b
}

// SetMetrics rebinds the blackboard's instrumentation to reg (nil means
// obs.Default()).
func (b *Blackboard) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	reg.Describe(MetricTriples, "Triples currently stored in the integration blackboard.")
	reg.Describe(MetricRevisions, "Mutations applied to the integration blackboard.")
	b.triples = reg.Gauge(MetricTriples)
	b.revs = reg.Counter(MetricRevisions)
	b.triples.Set(float64(b.g.Len()))
}

// Graph exposes the underlying RDF graph for queries and snapshots.
func (b *Blackboard) Graph() *rdf.Graph { return b.g }

// nextRevision advances the provenance counter and refreshes the
// triple-count gauge, after the last write of every mutation path.
func (b *Blackboard) nextRevision() {
	b.revision.Add(1)
	b.revs.Inc()
	b.triples.Set(float64(b.g.Len()))
}

// stamp writes the next revision onto node as a mutation's last write
// (mutators are serialized), so the gauge counts the triple it adds.
func (b *Blackboard) stamp(node rdf.Term) {
	b.g.SetOne(node, predRevision, rdf.IntLiteral(b.Revision()+1))
	b.nextRevision()
}

// Revision returns the current mutation counter. Safe for concurrent
// readers; it never decreases, even across rollbacks.
func (b *Blackboard) Revision() int { return int(b.revision.Load()) }

// ResumeRevision moves the revision counter up to the highest revision
// stored in the graph, so the next write's revision exceeds every stored
// one. Call it whenever triples arrive around the mutation paths — a
// restore, WAL recovery, or replication before a promote.
func (b *Blackboard) ResumeRevision() {
	var top int64
	b.g.Visit(rdf.Wild, predRevision, rdf.Wild, func(t rdf.Triple) bool {
		if v, err := t.O.Int(); err == nil && int64(v) > top {
			top = int64(v)
		}
		return true
	})
	for {
		cur := b.revision.Load()
		if cur >= top || b.revision.CompareAndSwap(cur, top) {
			return
		}
	}
}

// SyncMetrics re-derives snapshot gauges (the triple count) from the
// graph. The workbench manager calls it after rolling a transaction
// back, since rollback bypasses the blackboard's mutation paths.
func (b *Blackboard) SyncMetrics() { b.triples.Set(float64(b.g.Len())) }

// atomically runs op inside a graph savepoint, which it passes to op:
// if op returns an error or panics, every triple it touched is rolled
// back before the failure propagates, so a fault mid-write can never
// leave a partial mutation visible. Concurrent mutators must be
// serialized by the caller (the workbench manager's single-transaction
// rule does this).
func (b *Blackboard) atomically(op func(sp rdf.Savepoint) error) (err error) {
	sp := b.g.Savepoint()
	defer func() {
		if r := recover(); r != nil {
			b.g.Rollback(sp)
			b.SyncMetrics()
			panic(r)
		}
		if err != nil {
			b.g.Rollback(sp)
			b.SyncMetrics()
		} else {
			b.g.Release(sp)
		}
	}()
	return op(sp)
}

// ---- Schemata ----

// Schema versions (§5.1.3). The head node "name" holds the current
// version; each earlier version n is an archive node "name@v<n>" that
// stores the patch turning version n+1 back into n, one statement per
// changed triple in the WAL's N-Triples form.
var (
	classSchemaVersion = rdf.IRI(wbNS + "SchemaVersion")
	// predUndoAdd holds a triple version n has and version n+1 lacks,
	// predUndoDel one that version n+1 added.
	predUndoAdd = rdf.IRI(wbNS + "undo-add")
	predUndoDel = rdf.IRI(wbNS + "undo-del")
)

// PutSchema stores a schema. Re-putting a schema with an existing name
// archives the previous version under "name@v<n>" and bumps the version
// counter (§5.1.3: "the blackboard should track schemata across
// versions"). A re-put is a patch: it removes and adds only the triples
// that differ between the stored version and the new one, and the
// archive stores the patch's inverse, so both cost the size of the edit.
// It returns the new version number (1 for first put).
func (b *Blackboard) PutSchema(s *model.Schema) (int, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	node := model.SchemaIRI(s.Name)
	version := 1
	err := b.atomically(func(rdf.Savepoint) error {
		if rdf.TypeOf(b.g, node).IsZero() {
			if err := chaos.Inject(SitePutSchema); err != nil {
				return err
			}
			model.ToRDF(b.g, s)
		} else {
			prevVersion, _ := b.g.One(node, predVersion).Int()
			if prevVersion == 0 {
				prevVersion = 1
			}
			version = prevVersion + 1
			del, add := b.schemaPatch(s)
			arch := model.SchemaIRI(fmt.Sprintf("%s@v%d", s.Name, prevVersion))
			b.g.Add(rdf.Triple{S: arch, P: rdf.RDFType, O: classSchemaVersion})
			b.g.SetOne(arch, predVersion, rdf.IntLiteral(prevVersion))
			for _, t := range del {
				b.g.Add(rdf.Triple{S: arch, P: predUndoAdd, O: rdf.Literal(t.String())})
			}
			for _, t := range add {
				b.g.Add(rdf.Triple{S: arch, P: predUndoDel, O: rdf.Literal(t.String())})
			}
			b.g.Add(rdf.Triple{S: node, P: predArchivedAs, O: arch})
			// Failpoint mid-write: the old version is archived but the
			// head not yet patched; a fault here must roll the whole put
			// back.
			if err := chaos.Inject(SitePutSchema); err != nil {
				return err
			}
			for _, t := range del {
				b.g.Remove(t)
			}
			for _, t := range add {
				b.g.Add(t)
			}
		}
		b.g.SetOne(node, predVersion, rdf.IntLiteral(version))
		b.nextRevision()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return version, nil
}

// schemaPatch returns the triples a re-put of s removes from the stored
// version and the triples it adds: the set difference between the
// stored version's triples and s rendered by model.ToRDF. The head's
// version and archived-as triples belong to no version.
func (b *Blackboard) schemaPatch(s *model.Schema) (del, add []rdf.Triple) {
	next := rdf.NewGraph()
	model.ToRDF(next, s)
	node := model.SchemaIRI(s.Name)
	head := model.SchemaTriples(b.g, s.Name)
	stored := make(map[rdf.Triple]struct{}, len(head))
	for _, t := range head {
		if t.S == node && (t.P == predVersion || t.P == predArchivedAs) {
			continue
		}
		stored[t] = struct{}{}
		if !next.Has(t) {
			del = append(del, t)
		}
	}
	next.Visit(rdf.Wild, rdf.Wild, rdf.Wild, func(t rdf.Triple) bool {
		if _, ok := stored[t]; !ok {
			add = append(add, t)
		}
		return true
	})
	return del, add
}

// GetSchema reconstructs a stored schema by name: the current version,
// or an archived one as "name@v<n>".
func (b *Blackboard) GetSchema(name string) (*model.Schema, error) {
	node := model.SchemaIRI(name)
	if rdf.TypeOf(b.g, node) != classSchemaVersion {
		// The head, or an archive stored as a full copy of its version
		// (data written before archives were patches).
		return model.FromRDF(b.g, name)
	}
	return b.archivedSchema(node, name)
}

// archivedSchema rebuilds the archived version stored at node: the
// head's triples with the inverse patch of every later put applied,
// newest first, read under the archived name as the version was put,
// its element IDs re-derived under that name (see model.Schema.Clone).
func (b *Blackboard) archivedSchema(node rdf.Term, name string) (*model.Schema, error) {
	heads := b.g.Subjects(predArchivedAs, node)
	if len(heads) != 1 {
		return nil, fmt.Errorf("blackboard: archived schema %q has %d heads", name, len(heads))
	}
	base := strings.TrimPrefix(heads[0].Value(), wbNS+"schema/")
	want, _ := b.g.One(node, predVersion).Int()
	top, _ := b.g.One(heads[0], predVersion).Int()
	g := rdf.NewGraph()
	for _, t := range model.SchemaTriples(b.g, base) {
		g.Add(t)
	}
	for v := top - 1; v >= want; v-- {
		arch := model.SchemaIRI(fmt.Sprintf("%s@v%d", base, v))
		if rdf.TypeOf(b.g, arch) != classSchemaVersion {
			return nil, fmt.Errorf("blackboard: rebuilding %q: no archived version %d", name, v)
		}
		for _, p := range []rdf.Term{predUndoDel, predUndoAdd} {
			for _, lit := range b.g.Objects(arch, p) {
				t, err := rdf.ParseTriple(lit.Value())
				if err != nil {
					return nil, fmt.Errorf("blackboard: rebuilding %q: %w", name, err)
				}
				if p == predUndoDel {
					g.Remove(t)
				} else {
					g.Add(t)
				}
			}
		}
	}
	old, err := model.FromRDF(g, base)
	if err != nil {
		return nil, err
	}
	old.Name = name
	return old.Clone(), nil
}

// SchemaVersion returns the current version of a schema (0 if absent).
func (b *Blackboard) SchemaVersion(name string) int {
	v, _ := b.g.One(model.SchemaIRI(name), predVersion).Int()
	return v
}

// Schemas lists stored schema names, current versions only. Archived
// versions are not typed as schemas; the "@v" filter drops the archives
// that data written before archives were patches stores as full copies.
func (b *Blackboard) Schemas() []string {
	var out []string
	for _, n := range model.SchemaNames(b.g) {
		if !strings.Contains(n, "@v") {
			out = append(out, n)
		}
	}
	return out
}

// ---- Mappings ----

// mappingIRI names a mapping matrix node.
func mappingIRI(id string) rdf.Term { return rdf.IRI(wbNS + "mapping/" + id) }

// Mapping is a handle on one mapping matrix in the IB.
type Mapping struct {
	b    *Blackboard
	node rdf.Term
	// ID is the mapping's identifier in the library.
	ID string
	// SourceSchema and TargetSchema name the mapped schemata.
	SourceSchema, TargetSchema string
	// cellPrefix, srcPrefix and tgtPrefix are the IRI prefixes of the
	// mapping's cells and of its source and target elements, built once
	// per handle rather than once per cell read.
	cellPrefix, srcPrefix, tgtPrefix string
}

// newMapping returns the handle on the mapping node for id.
func (b *Blackboard) newMapping(id, sourceSchema, targetSchema string) *Mapping {
	node := mappingIRI(id)
	return &Mapping{
		b: b, node: node, ID: id,
		SourceSchema: sourceSchema, TargetSchema: targetSchema,
		cellPrefix: node.Value() + "/cell/",
		srcPrefix:  model.SchemaIRI(sourceSchema).Value() + "#",
		tgtPrefix:  model.SchemaIRI(targetSchema).Value() + "#",
	}
}

// NewMapping creates a mapping matrix between two stored schemata. The id
// must be unique in the mapping library.
func (b *Blackboard) NewMapping(id, sourceSchema, targetSchema string) (*Mapping, error) {
	for _, name := range []string{sourceSchema, targetSchema} {
		if rdf.TypeOf(b.g, model.SchemaIRI(name)).IsZero() {
			return nil, fmt.Errorf("blackboard: schema %q not in blackboard", name)
		}
	}
	node := mappingIRI(id)
	if !rdf.TypeOf(b.g, node).IsZero() {
		return nil, fmt.Errorf("blackboard: mapping %q already exists", id)
	}
	b.g.Add(rdf.Triple{S: node, P: rdf.RDFType, O: classMapping})
	b.g.SetOne(node, predSourceSchema, model.SchemaIRI(sourceSchema))
	b.g.SetOne(node, predTargetSchema, model.SchemaIRI(targetSchema))
	b.nextRevision()
	return b.newMapping(id, sourceSchema, targetSchema), nil
}

// GetMapping opens an existing mapping by id.
func (b *Blackboard) GetMapping(id string) (*Mapping, error) {
	node := mappingIRI(id)
	if rdf.TypeOf(b.g, node) != classMapping {
		return nil, fmt.Errorf("blackboard: no mapping %q", id)
	}
	src := b.g.One(node, predSourceSchema).Value()
	tgt := b.g.One(node, predTargetSchema).Value()
	return b.newMapping(id, strings.TrimPrefix(src, wbNS+"schema/"), strings.TrimPrefix(tgt, wbNS+"schema/")), nil
}

// Mappings lists mapping IDs — the §5.1.3 "library of mappings".
func (b *Blackboard) Mappings() []string {
	var out []string
	for _, n := range rdf.InstancesOf(b.g, classMapping) {
		out = append(out, strings.TrimPrefix(n.Value(), wbNS+"mapping/"))
	}
	sort.Strings(out)
	return out
}

// DeleteMapping removes a mapping and its cells/rows/columns, and drops
// its cell table. On error (injected fault) nothing is deleted.
func (b *Blackboard) DeleteMapping(id string) error {
	node := mappingIRI(id)
	defer b.tables.drop(id)
	return b.atomically(func(rdf.Savepoint) error {
		for _, p := range []rdf.Term{predHasCell, predHasRow, predHasColumn} {
			for _, child := range b.g.Objects(node, p) {
				b.g.RemoveMatching(child, rdf.Wild, rdf.Wild)
			}
		}
		// Failpoint mid-delete: children are gone but the mapping node and
		// its has-* edges remain — the orphan-free invariant relies on this
		// rolling back.
		if err := chaos.Inject(SiteDeleteMapping); err != nil {
			return err
		}
		b.g.RemoveMatching(node, rdf.Wild, rdf.Wild)
		b.nextRevision()
		return nil
	})
}

// ---- Cells ----

// Cell is one mapping-matrix cell: a potential correspondence between a
// source and a target element, annotated per §5.1.2.
type Cell struct {
	SourceID, TargetID string
	Confidence         float64
	UserDefined        bool
	// SetBy names the tool that last wrote the cell (provenance).
	SetBy string
	// Revision is the blackboard revision of the last write.
	Revision int
}

// cellNode finds or creates the cell node for a pair. Cell IRIs are
// deterministic in (mapping, srcID, tgtID), so lookup is a single
// indexed membership test on the has-cell edge rather than a scan over
// the matrix — bulk publishes stay linear in the number of cells.
func (m *Mapping) cellNode(srcID, tgtID string, create bool) rdf.Term {
	c := rdf.IRI(m.cellPrefix + srcID + "|" + tgtID)
	if m.b.g.Has(rdf.Triple{S: m.node, P: predHasCell, O: c}) {
		return c
	}
	if !create {
		return rdf.Term{}
	}
	m.b.g.Add(rdf.Triple{S: c, P: rdf.RDFType, O: classCell})
	m.b.g.SetOne(c, predCellRow, rdf.IRI(m.srcPrefix+srcID))
	m.b.g.SetOne(c, predCellCol, rdf.IRI(m.tgtPrefix+tgtID))
	m.b.g.Add(rdf.Triple{S: m.node, P: predHasCell, O: c})
	return c
}

// SetCell writes a correspondence: confidence in [-1,1] and whether it is
// user-defined. tool is recorded as provenance. On error (injected
// fault) the cell — including a freshly created node — is rolled back.
// A write that succeeds carries the exact cell tables across itself.
func (m *Mapping) SetCell(srcID, tgtID string, confidence float64, userDefined bool, tool string) error {
	return m.b.atomically(func(sp rdf.Savepoint) error {
		c := m.cellNode(srcID, tgtID, true)
		m.b.g.SetOne(c, predConfidence, rdf.FloatLiteral(confidence))
		// Failpoint mid-write: the node exists and the confidence is set
		// but provenance is not — a fault here must undo all of it.
		if err := chaos.Inject(SiteSetCell); err != nil {
			return err
		}
		m.b.g.SetOne(c, predUserDefined, rdf.BoolLiteral(userDefined))
		m.b.g.SetOne(c, predSetBy, rdf.Literal(tool))
		m.b.stamp(c)
		m.carry(c, sp)
		return nil
	})
}

// ErrUnknownElement is wrapped by CheckPair's error.
var ErrUnknownElement = errors.New("blackboard: unknown element")

// CheckPair reports an error, wrapping ErrUnknownElement and naming the
// ID, unless srcID and tgtID name non-root elements of the mapping's
// current source and target schemas: the only pairs a decision may pin,
// since a match engine rejects any other. It costs two index probes per
// side and never rebuilds a schema.
func (m *Mapping) CheckPair(srcID, tgtID string) error {
	for _, side := range [...]struct{ role, schema, id string }{
		{"source", m.SourceSchema, srcID},
		{"target", m.TargetSchema, tgtID},
	} {
		el := model.ElementIRI(side.schema, side.id)
		if !m.b.g.Has(rdf.Triple{S: el, P: rdf.RDFType, O: model.ClassElementT}) ||
			m.b.g.One(model.SchemaIRI(side.schema), model.PredRootOf) == el {
			return fmt.Errorf("%w %q: not a non-root element of mapping %s's %s schema %q",
				ErrUnknownElement, side.id, m.ID, side.role, side.schema)
		}
	}
	return nil
}

// GetCell reads a cell; ok is false when the pair has never been scored.
// It finds the cell by its node, whose IRI joins the IDs with "|", so the
// cell it finds may hold another pair. It reads the node from the
// mapping's cell table when that is exact at the graph's generation, and
// from the graph otherwise; it never builds a table.
func (m *Mapping) GetCell(srcID, tgtID string) (Cell, bool) {
	if cell, ok, exact := m.b.tables.get(m, srcID, tgtID); exact {
		return cell, ok
	}
	c := m.cellNode(srcID, tgtID, false)
	if c.IsZero() {
		return Cell{}, false
	}
	return m.readCell(c), true
}

// cellPreds are the annotations readCell reads, in the order it unpacks
// them.
var cellPreds = [...]rdf.Term{predConfidence, predUserDefined, predRevision, predCellRow, predCellCol, predSetBy}

// readCell reads a cell's annotations with one subject lookup under one
// read lock.
func (m *Mapping) readCell(c rdf.Term) Cell {
	var v [len(cellPreds)]rdf.Term
	m.b.g.Ones(c, cellPreds[:], v[:])
	conf, _ := v[0].Float()
	ud, _ := v[1].Bool()
	rev, _ := v[2].Int()
	return Cell{
		SourceID:    strings.TrimPrefix(v[3].Value(), m.srcPrefix),
		TargetID:    strings.TrimPrefix(v[4].Value(), m.tgtPrefix),
		Confidence:  conf,
		UserDefined: ud,
		SetBy:       v[5].Value(),
		Revision:    rev,
	}
}

// Cells returns every scored cell, ordered by (SourceID, TargetID), in
// a slice the caller owns. It copies the mapping's cell table when that
// is exact at the graph's generation; otherwise it reads the triples
// and keeps them as the table.
func (m *Mapping) Cells() []Cell {
	if out, ok := m.b.tables.read(m, false); ok {
		return out
	}
	gen := m.b.g.Generation()
	t := m.readTable()
	out := t.sorted(false)
	m.b.tables.keep(m, t, gen)
	return out
}

// Len returns the number of scored cells, counting the mapping's
// has-cell edges without reading a cell.
func (m *Mapping) Len() int { return m.b.g.CountObjects(m.node, predHasCell) }

// UserCells returns the cells an analyst decided (is-user-defined true),
// ordered like Cells. It filters the mapping's cell table when that is
// exact; otherwise it reads through the is-user-defined index, which
// costs the decided cells of every mapping, and builds no table.
func (m *Mapping) UserCells() []Cell {
	if out, ok := m.b.tables.read(m, true); ok {
		return out
	}
	// Ownership is the has-cell edge alone, as in Cells: a decided cell
	// node under another mapping's IRI prefix is this mapping's cell
	// when this mapping has the edge to it.
	var nodes []rdf.Term
	m.b.g.Visit(rdf.Wild, predUserDefined, rdf.BoolLiteral(true), func(t rdf.Triple) bool {
		nodes = append(nodes, t.S)
		return true
	})
	owned := &cellTable{}
	for _, c := range nodes {
		if m.b.g.Has(rdf.Triple{S: m.node, P: predHasCell, O: c}) {
			owned.cells = append(owned.cells, m.readCell(c))
			owned.nodes = append(owned.nodes, c)
		}
	}
	return owned.sorted(false)
}

// ---- Rows and columns ----

func (m *Mapping) rowNode(srcID string, create bool) rdf.Term {
	elem := model.ElementIRI(m.SourceSchema, srcID)
	for _, r := range m.b.g.Objects(m.node, predHasRow) {
		if m.b.g.One(r, predRowElem) == elem {
			return r
		}
	}
	if !create {
		return rdf.Term{}
	}
	r := rdf.IRI(m.node.Value() + "/row/" + srcID)
	m.b.g.Add(rdf.Triple{S: r, P: rdf.RDFType, O: classRow})
	m.b.g.SetOne(r, predRowElem, elem)
	m.b.g.Add(rdf.Triple{S: m.node, P: predHasRow, O: r})
	return r
}

func (m *Mapping) colNode(tgtID string, create bool) rdf.Term {
	elem := model.ElementIRI(m.TargetSchema, tgtID)
	for _, c := range m.b.g.Objects(m.node, predHasColumn) {
		if m.b.g.One(c, predColElem) == elem {
			return c
		}
	}
	if !create {
		return rdf.Term{}
	}
	c := rdf.IRI(m.node.Value() + "/col/" + tgtID)
	m.b.g.Add(rdf.Triple{S: c, P: rdf.RDFType, O: classColumn})
	m.b.g.SetOne(c, predColElem, elem)
	m.b.g.Add(rdf.Triple{S: m.node, P: predHasColumn, O: c})
	return c
}

// SetRowVariable annotates a source row with its variable-name (§5.1.2).
func (m *Mapping) SetRowVariable(srcID, variable string) {
	m.b.g.SetOne(m.rowNode(srcID, true), predVariable, rdf.Literal(variable))
	m.b.nextRevision()
}

// RowVariable returns the row's variable-name ("" when unset).
func (m *Mapping) RowVariable(srcID string) string {
	r := m.rowNode(srcID, false)
	if r.IsZero() {
		return ""
	}
	return m.b.g.One(r, predVariable).Value()
}

// SetColumnCode annotates a target column with its transformation code —
// "each column is annotated with code that references these names".
func (m *Mapping) SetColumnCode(tgtID, code, tool string) {
	c := m.colNode(tgtID, true)
	m.b.g.SetOne(c, predCode, rdf.Literal(code))
	m.b.g.SetOne(c, predSetBy, rdf.Literal(tool))
	m.b.stamp(c)
}

// ColumnCode returns the column's code annotation.
func (m *Mapping) ColumnCode(tgtID string) string {
	c := m.colNode(tgtID, false)
	if c.IsZero() {
		return ""
	}
	return m.b.g.One(c, predCode).Value()
}

// SetRowComplete / SetColumnComplete track matching progress (§5.1.2:
// "Harmony annotates rows and columns with is-complete").
func (m *Mapping) SetRowComplete(srcID string, complete bool) {
	m.b.g.SetOne(m.rowNode(srcID, true), predComplete, rdf.BoolLiteral(complete))
	m.b.nextRevision()
}

// RowComplete reports the row's is-complete annotation.
func (m *Mapping) RowComplete(srcID string) bool {
	r := m.rowNode(srcID, false)
	if r.IsZero() {
		return false
	}
	v, _ := m.b.g.One(r, predComplete).Bool()
	return v
}

// SetColumnComplete sets the column's is-complete annotation.
func (m *Mapping) SetColumnComplete(tgtID string, complete bool) {
	m.b.g.SetOne(m.colNode(tgtID, true), predComplete, rdf.BoolLiteral(complete))
	m.b.nextRevision()
}

// ColumnComplete reports the column's is-complete annotation.
func (m *Mapping) ColumnComplete(tgtID string) bool {
	c := m.colNode(tgtID, false)
	if c.IsZero() {
		return false
	}
	v, _ := m.b.g.One(c, predComplete).Bool()
	return v
}

// SetCode sets the whole-matrix code annotation — "the matrix as a whole
// has a code annotation, which represents the mapping from source to
// target".
func (m *Mapping) SetCode(code, tool string) {
	m.b.g.SetOne(m.node, predCode, rdf.Literal(code))
	m.b.g.SetOne(m.node, predSetBy, rdf.Literal(tool))
	m.b.stamp(m.node)
}

// Code returns the whole-matrix code annotation.
func (m *Mapping) Code() string { return m.b.g.One(m.node, predCode).Value() }

// Provenance returns who last wrote the matrix-level code and at which
// revision (§5.1.3: "the blackboard should maintain mapping provenance").
func (m *Mapping) Provenance() (tool string, revision int) {
	rev, _ := m.b.g.One(m.node, predRevision).Int()
	return m.b.g.One(m.node, predSetBy).Value(), rev
}

// ---- Shared context (§5.1.3: focus shared across tools) ----

// SetFocus records the element subtree the engineer is focused on.
func (b *Blackboard) SetFocus(schemaName, elementID string) {
	b.g.SetOne(rdf.IRI(wbNS+"context"), predFocus, model.ElementIRI(schemaName, elementID))
	b.nextRevision()
}

// Focus returns the current focus element IRI value ("" when unset).
func (b *Blackboard) Focus() string {
	return b.g.One(rdf.IRI(wbNS+"context"), predFocus).Value()
}

// ClearFocus removes the focus annotation.
func (b *Blackboard) ClearFocus() {
	b.g.RemoveMatching(rdf.IRI(wbNS+"context"), predFocus, rdf.Wild)
	b.nextRevision()
}

// ---- Integrity ----

// CheckIntegrity scans the IB for structural violations of the mapping
// vocabulary: orphaned cell/row/column nodes (typed but not owned by any
// mapping), ownership edges pointing at untyped nodes, cells missing
// their row/column coordinates, and mappings whose source or target
// schema is absent. It returns one error per violation (nil-length when
// the IB is consistent). The chaos simulator runs it after every
// fault-injected workload.
func (b *Blackboard) CheckIntegrity() []error {
	var errs []error
	type childClass struct {
		class   rdf.Term
		ownEdge rdf.Term
		label   string
	}
	classes := []childClass{
		{classCell, predHasCell, "cell"},
		{classRow, predHasRow, "row"},
		{classColumn, predHasColumn, "column"},
	}
	for _, cc := range classes {
		for _, n := range rdf.InstancesOf(b.g, cc.class) {
			owners := b.g.Subjects(cc.ownEdge, n)
			if len(owners) == 0 {
				errs = append(errs, fmt.Errorf("blackboard: orphan %s node %s (no owning mapping)", cc.label, n))
				continue
			}
			for _, o := range owners {
				if rdf.TypeOf(b.g, o) != classMapping {
					errs = append(errs, fmt.Errorf("blackboard: %s node %s owned by non-mapping %s", cc.label, n, o))
				}
			}
		}
	}
	for _, mnode := range rdf.InstancesOf(b.g, classMapping) {
		for _, cc := range classes {
			for _, child := range b.g.Objects(mnode, cc.ownEdge) {
				if rdf.TypeOf(b.g, child) != cc.class {
					errs = append(errs, fmt.Errorf("blackboard: mapping %s owns untyped %s node %s", mnode, cc.label, child))
				}
			}
		}
		for _, c := range b.g.Objects(mnode, predHasCell) {
			if b.g.One(c, predCellRow).IsZero() || b.g.One(c, predCellCol).IsZero() {
				errs = append(errs, fmt.Errorf("blackboard: cell %s missing row/column coordinates", c))
			}
		}
		for _, p := range []rdf.Term{predSourceSchema, predTargetSchema} {
			ref := b.g.One(mnode, p)
			if ref.IsZero() {
				errs = append(errs, fmt.Errorf("blackboard: mapping %s missing %s", mnode, p))
				continue
			}
			if rdf.TypeOf(b.g, ref).IsZero() {
				errs = append(errs, fmt.Errorf("blackboard: mapping %s references absent schema %s", mnode, ref))
			}
		}
	}
	return errs
}

// ---- Snapshots ----

// Snapshot writes the whole blackboard as canonical N-Triples.
func (b *Blackboard) Snapshot(w io.Writer) error { return rdf.WriteNTriples(w, b.g) }

// Restore replaces the blackboard contents from an N-Triples stream —
// together with Snapshot, the stand-in for sharing one IB across multiple
// workbench instances. The revision counter resumes past every revision
// the stream stores.
func (b *Blackboard) Restore(r io.Reader) error {
	g, err := rdf.ReadNTriples(r)
	if err != nil {
		return err
	}
	b.g.ReplaceWith(g)
	b.ResumeRevision()
	b.nextRevision()
	return nil
}
