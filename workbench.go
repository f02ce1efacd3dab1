// Package workbench is the public API of the integration workbench, a
// from-scratch reproduction of "Integration Workbench: Integrating Schema
// Integration Tools" (Mork, Rosenthal, Seligman, Korb, Samuel — ICDE
// 2006).
//
// The package re-exports the types a downstream user needs from the
// internal packages:
//
//   - schema loading (XSD, SQL DDL, ER text) into the canonical schema
//     graph (Schema, Element, Domain);
//   - the Harmony schema matcher (Engine) with its voter panel, vote
//     merger, similarity flooding, filters and iterative refinement;
//   - the integration blackboard (Blackboard, Mapping) and the workbench
//     manager (Manager, Tool, events, transactions, queries);
//   - the mapping tool and code generator (MapperTool, CodeGenTool,
//     Program) with the XQuery-flavoured transformation language;
//   - instance-side utilities (Record, Dataset, Validate, Link, Clean);
//   - the task model (Tasks, ToolProfile) and the end-to-end
//     IntegrationSession.
//
// See examples/quickstart for the fastest route from two schemata to an
// executable mapping.
package workbench

import (
	"io"
	"net/http"

	"repro/internal/blackboard"
	"repro/internal/core"
	"repro/internal/erwin"
	"repro/internal/harmony"
	"repro/internal/instance"
	"repro/internal/mapgen"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/reuse"
	"repro/internal/sqlddl"
	"repro/internal/wbmgr"
	"repro/internal/xmlschema"
)

// Schema-graph model.
type (
	// Schema is a canonical schema graph.
	Schema = model.Schema
	// Element is a schema-graph node.
	Element = model.Element
	// Domain is an enumerated coding scheme.
	Domain = model.Domain
	// DomainValue is one code of a coding scheme.
	DomainValue = model.DomainValue
	// Kind classifies elements (entity, attribute, relationship).
	Kind = model.Kind
)

// Element kinds.
const (
	KindSchema       = model.KindSchema
	KindEntity       = model.KindEntity
	KindAttribute    = model.KindAttribute
	KindRelationship = model.KindRelationship
)

// NewSchema returns an empty canonical schema.
func NewSchema(name, format string) *Schema { return model.NewSchema(name, format) }

// Loaders (§3.1 task 1).

// LoadXSD parses an XML Schema document into a canonical schema.
func LoadXSD(name string, r io.Reader) (*Schema, error) { return xmlschema.Load(name, r) }

// LoadXSDFile loads an .xsd file, named after the file stem.
func LoadXSDFile(path string) (*Schema, error) { return xmlschema.LoadFile(path) }

// LoadSQL parses SQL DDL into a canonical schema.
func LoadSQL(name string, r io.Reader) (*Schema, error) { return sqlddl.Load(name, r) }

// LoadSQLFile loads a .sql file.
func LoadSQLFile(path string) (*Schema, error) { return sqlddl.LoadFile(path) }

// LoadER parses the ER text format (the ERWin stand-in).
func LoadER(name string, r io.Reader) (*Schema, error) { return erwin.Load(name, r) }

// LoadERFile loads an .er file.
func LoadERFile(path string) (*Schema, error) { return erwin.LoadFile(path) }

// Harmony matcher (§4).
type (
	// Engine is a Harmony matching session over one schema pair.
	Engine = harmony.Engine
	// EngineOptions configures an Engine.
	EngineOptions = harmony.Options
	// Link is a displayed correspondence with its metadata.
	Link = harmony.Link
	// View selects which links are displayed (the §4.2 filters).
	View = harmony.View
	// LinkFilter is a predicate over links.
	LinkFilter = harmony.LinkFilter
	// NodeFilter enables/disables schema elements.
	NodeFilter = harmony.NodeFilter
	// Voter is one match strategy.
	Voter = match.Voter
	// Correspondence is one scored element pair.
	Correspondence = match.Correspondence
	// Matrix is a confidence matrix over a schema pair.
	Matrix = match.Matrix
	// BlockingOptions configures registry-scale candidate generation
	// (EngineOptions.Blocking): with Enabled set, an inverted-index
	// blocking pass prunes the cross product before any voter runs and
	// the pipeline's matrices are stored sparsely over the survivors.
	BlockingOptions = match.BlockingOptions
)

// NewEngine preprocesses a schema pair and returns a Harmony engine. The
// pipeline parallelizes across EngineOptions.Parallelism workers
// (0 = GOMAXPROCS, 1 = sequential) with bit-identical results at any
// setting; see DESIGN.md "Concurrency model".
func NewEngine(source, target *Schema, opts EngineOptions) *Engine {
	return harmony.NewEngine(source, target, opts)
}

// DefaultVoters returns the standard Harmony voter panel.
func DefaultVoters() []Voter { return match.DefaultVoters() }

// Filters (§4.2).
var (
	// ConfidenceFilter keeps links at or above a threshold.
	ConfidenceFilter = harmony.ConfidenceFilter
	// OriginFilter keeps human- or machine-generated links.
	OriginFilter = harmony.OriginFilter
	// DepthFilter enables elements at or above a depth.
	DepthFilter = harmony.DepthFilter
	// SubtreeFilter enables one subtree.
	SubtreeFilter = harmony.SubtreeFilter
	// KindFilter enables one element kind.
	KindFilter = harmony.KindFilter
)

// Blackboard and manager (§5).
type (
	// Blackboard is the shared RDF knowledge repository.
	Blackboard = blackboard.Blackboard
	// Mapping is a handle on one mapping matrix in the blackboard.
	Mapping = blackboard.Mapping
	// MappingCell is one annotated matrix cell.
	MappingCell = blackboard.Cell
	// Manager is the workbench manager: transactions, events, queries.
	Manager = wbmgr.Manager
	// Tool is the §5.2.1 tool interface.
	Tool = wbmgr.Tool
	// Event is a blackboard-change notification.
	Event = wbmgr.Event
	// EventKind classifies events.
	EventKind = wbmgr.EventKind
	// Txn is one transactional update scope.
	Txn = wbmgr.Txn
)

// Event kinds (§5.2.2).
const (
	EventSchemaGraph   = wbmgr.EventSchemaGraph
	EventMappingCell   = wbmgr.EventMappingCell
	EventMappingVector = wbmgr.EventMappingVector
	EventMappingMatrix = wbmgr.EventMappingMatrix
)

// NewBlackboard returns an empty integration blackboard.
func NewBlackboard() *Blackboard { return blackboard.New() }

// NewManager returns a workbench manager over a fresh blackboard.
func NewManager() *Manager { return wbmgr.New() }

// Mapping and code generation.
type (
	// Program is an executable logical mapping (task 8).
	Program = mapgen.Program
	// EntityRule maps one source entity to one target entity.
	EntityRule = mapgen.EntityRule
	// ColumnRule produces one target attribute.
	ColumnRule = mapgen.ColumnRule
	// JoinSpec joins a second source entity.
	JoinSpec = mapgen.JoinSpec
	// LookupTable is a coding-scheme translation (task 4).
	LookupTable = mapgen.LookupTable
	// MapperTool is the workbench mapping tool.
	MapperTool = mapgen.MapperTool
	// CodeGenTool assembles column code into a whole mapping.
	CodeGenTool = mapgen.CodeGenTool
	// Expr is a parsed transformation expression.
	Expr = mapgen.Expr
)

// ParseExpr parses a transformation expression.
func ParseExpr(src string) (Expr, error) { return mapgen.Parse(src) }

// ErrorPolicy governs exceptional conditions during mapping execution
// (task 12).
type ErrorPolicy = mapgen.ErrorPolicy

// Error policies for Program.ExecuteWithPolicy.
const (
	FailFast          = mapgen.FailFast
	NullOnError       = mapgen.NullOnError
	SkipRecordOnError = mapgen.SkipRecordOnError
)

// NewMapperTool returns a mapper bound to a mapping id.
func NewMapperTool(mappingID string) *MapperTool { return mapgen.NewMapperTool(mappingID) }

// NewCodeGenTool returns a code generator bound to a mapping.
func NewCodeGenTool(mappingID, sourceEntityID, targetEntityID string) *CodeGenTool {
	return mapgen.NewCodeGenTool(mappingID, sourceEntityID, targetEntityID)
}

// Instance layer (§3.4).
type (
	// Record is an instance element (tuple or document node).
	Record = instance.Record
	// Dataset is a set of records under one schema.
	Dataset = instance.Dataset
	// Violation is one constraint violation.
	Violation = instance.Violation
	// LinkOptions configures instance linking (task 10).
	LinkOptions = instance.LinkOptions
)

// NewRecord returns an empty record of the given type.
func NewRecord(typ string) *Record { return instance.NewRecord(typ) }

// ValidateInstances checks a dataset against a schema (task 9).
func ValidateInstances(s *Schema, ds *Dataset) []Violation { return instance.Validate(s, ds) }

// LinkInstances merges co-referent records (task 10).
func LinkInstances(records []*Record, opts LinkOptions) []*Record {
	return instance.Link(records, opts).Merged
}

// CleanInstances removes domain-violating values (task 11).
func CleanInstances(s *Schema, ds *Dataset) []Violation {
	return instance.Clean(s, ds, instance.CleanOptions{DropViolations: true})
}

// Task model and orchestration (§3, §5.3).
type (
	// TaskID numbers the 13 integration tasks.
	TaskID = core.TaskID
	// IntegrationTask describes one subtask.
	IntegrationTask = core.Task
	// ToolProfile is one tool's task coverage.
	ToolProfile = core.ToolProfile
	// IntegrationSession drives an end-to-end integration.
	IntegrationSession = core.IntegrationSession
)

// IntegrationTasks is the complete 13-task model.
func IntegrationTasks() []IntegrationTask { return core.Tasks }

// Extensions (paper §5.1.3 future goals and §3.1–3.2 optional paths).
type (
	// Derivation is a target schema derived from source correspondences.
	Derivation = core.Derivation
	// LibraryVoter votes from prior decisions in the mapping library.
	LibraryVoter = reuse.LibraryVoter
	// SchemaDiff is one change between schema versions.
	SchemaDiff = model.DiffEntry
	// InferOptions tunes domain inference from instance data.
	InferOptions = instance.InferOptions
)

// DeriveTarget builds a unified target schema from correspondences among
// source schemata (task 2's optional path).
func DeriveTarget(name string, sources []*Schema, threshold float64) (*Derivation, error) {
	return core.DeriveTarget(name, sources, threshold)
}

// VotersWithLibrary is the default panel plus the mapping-library voter.
func VotersWithLibrary(bb *Blackboard) []Voter { return reuse.VotersWithLibrary(bb) }

// DiffSchemas compares two schema versions (§3.1 metadata sync).
func DiffSchemas(old, new *Schema) []SchemaDiff { return model.Diff(old, new) }

// InferDomains enriches a schema with coding schemes recovered from
// instance data (§3.1 enrichment, §2 coding-scheme discussion).
func InferDomains(s *Schema, ds *Dataset, opts InferOptions) []string {
	return instance.InferDomains(s, ds, opts)
}

// SynthesizeInstances generates a dataset conforming to a schema (n
// records per top-level entity) for testing generated mappings.
func SynthesizeInstances(s *Schema, n int, seed int64) *Dataset {
	return instance.Synthesize(s, n, seed)
}

// SchemaToDOT renders a schema as Graphviz DOT.
func SchemaToDOT(s *Schema) string { return model.ToDOT(s) }

// MappingDOTCell is one correspondence line for MappingToDOT.
type MappingDOTCell = model.MappingDOTCell

// MappingToDOT renders a schema pair with color-coded correspondence
// lines — the headless equivalent of the Harmony GUI's display.
func MappingToDOT(src, tgt *Schema, cells []MappingDOTCell) string {
	return model.MappingToDOT(src, tgt, cells)
}

// Observability (internal/obs): the engine, manager and blackboard all
// instrument themselves on DefaultMetrics() unless rebound.
type (
	// MetricsRegistry holds counters, gauges and latency histograms.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is one metric family's point-in-time state.
	MetricsSnapshot = obs.Metric
)

// NewMetricsRegistry returns an empty metrics registry, for isolating a
// component's instrumentation from the process-wide default.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DefaultMetrics is the process-wide metrics registry.
func DefaultMetrics() *MetricsRegistry { return obs.Default() }

// MetricsHandler serves /metrics (Prometheus text, ?format=json for
// JSON) and /healthz — embed it to expose the workbench as a service.
func MetricsHandler(r *MetricsRegistry) http.Handler { return obs.Handler(r) }

// ServeMetrics exposes MetricsHandler on addr, blocking.
func ServeMetrics(addr string, r *MetricsRegistry) error { return obs.Serve(addr, r) }

// WriteMetricsText writes a registry in Prometheus text format.
func WriteMetricsText(w io.Writer, r *MetricsRegistry) error { return obs.WritePrometheus(w, r) }

// WriteMetricsJSON writes a registry as JSON.
func WriteMetricsJSON(w io.Writer, r *MetricsRegistry) error { return obs.WriteJSON(w, r) }

// NewIntegrationSession builds a workbench, stores both schemata, and
// wires the matcher/mapper/codegen tools around one mapping.
func NewIntegrationSession(mappingID string, source, target *Schema, sourceEntityID, targetEntityID string) (*IntegrationSession, error) {
	return core.NewIntegrationSession(mappingID, source, target, sourceEntityID, targetEntityID)
}
