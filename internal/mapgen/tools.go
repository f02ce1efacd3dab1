package mapgen

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/blackboard"
	"repro/internal/model"
	"repro/internal/wbmgr"
)

// Workbench tool adapters (paper §5.2.1): MapperTool plays the manual
// mapping role (attaching code annotations to columns) and CodeGenTool
// plays the code generator ("a code-generator assembles the code
// associated with each column into a coherent whole"). Together they are
// the AquaLogic stand-in of the §5.3 case study.

// MapperTool proposes and records column transformation code. It listens
// for mapping-cell events and, for accepted correspondences, proposes a
// candidate transformation ("a mapping tool can listen for these events
// to propose a candidate transformation, such as a type conversion",
// §5.2.2).
type MapperTool struct {
	// MappingID is the mapping this tool works on.
	MappingID string

	mu sync.Mutex
	// proposals records auto-proposed code per target column.
	proposals map[string]string
}

// NewMapperTool returns a mapper bound to one mapping id.
func NewMapperTool(mappingID string) *MapperTool {
	return &MapperTool{MappingID: mappingID, proposals: map[string]string{}}
}

// Name implements wbmgr.Tool.
func (t *MapperTool) Name() string { return "mapper" }

// Initialize subscribes to mapping-cell events.
func (t *MapperTool) Initialize(m *wbmgr.Manager) error {
	m.Subscribe(wbmgr.EventMappingCell, t.Name(), func(e wbmgr.Event) {
		parts := strings.SplitN(e.Subject, "|", 3)
		if len(parts) != 3 || parts[0] != t.MappingID {
			return
		}
		t.proposeCode(m, parts[1], parts[2])
	})
	return nil
}

// proposeCode reacts to a new correspondence by proposing default
// transformation code for the target column when none exists yet.
func (t *MapperTool) proposeCode(m *wbmgr.Manager, srcID, tgtID string) {
	mp, err := m.Blackboard().GetMapping(t.MappingID)
	if err != nil {
		return
	}
	cell, ok := mp.GetCell(srcID, tgtID)
	if !ok || cell.Confidence < 1 || !cell.UserDefined {
		return // only accepted correspondences trigger proposals
	}
	if mp.ColumnCode(tgtID) != "" {
		return // the engineer already wrote code
	}
	variable := mp.RowVariable(srcID)
	if variable == "" {
		variable = "$" + varNameFor(srcID)
		mp.SetRowVariable(srcID, variable)
	}
	code := defaultCode(m.Blackboard(), mp, srcID, tgtID, variable)
	t.mu.Lock()
	t.proposals[tgtID] = code
	t.mu.Unlock()
}

// Proposals returns auto-proposed code per target column.
func (t *MapperTool) Proposals() map[string]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]string, len(t.proposals))
	for k, v := range t.proposals {
		out[k] = v
	}
	return out
}

// defaultCode derives a candidate transformation: unit mediation when
// both attributes declare measurement units (task 4's context
// mediation), otherwise an identity copy with a numeric data() wrapper
// when the target attribute is numeric — the "type conversion" proposal
// of §5.2.2.
func defaultCode(bb *blackboard.Blackboard, mp *blackboard.Mapping, srcID, tgtID, variable string) string {
	field := tail(srcID)
	ref := fmt.Sprintf("%s/%s", variable, field)
	srcSchema, errS := bb.GetSchema(mp.SourceSchema)
	tgtSchema, errT := bb.GetSchema(mp.TargetSchema)
	if errS == nil && errT == nil {
		srcElem := srcSchema.Element(srcID)
		tgtElem := tgtSchema.Element(tgtID)
		if code, ok := MediateUnits(srcElem, tgtElem, ref); ok {
			return code
		}
	}
	if errT == nil {
		if e := tgtSchema.Element(tgtID); e != nil {
			switch strings.ToLower(e.DataType) {
			case "decimal", "int", "integer", "float", "double", "numeric":
				return "data(" + ref + ")"
			}
		}
	}
	return ref
}

func tail(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

func varNameFor(srcID string) string {
	return strings.ToLower(tail(srcID))
}

// Invoke records column code supplied by the engineer:
// args: "target" (column element ID), "code" (expression text), and
// optionally "variable"+"source" to name a row variable first. The write
// is transactional and fires a mapping-vector event.
func (t *MapperTool) Invoke(m *wbmgr.Manager, args map[string]string) error {
	tgtID := args["target"]
	code := args["code"]
	if tgtID == "" || code == "" {
		return fmt.Errorf("mapgen: mapper needs target= and code=")
	}
	if _, err := Parse(code); err != nil {
		return fmt.Errorf("mapgen: rejecting code for %s: %w", tgtID, err)
	}
	txn, err := m.Begin(t.Name())
	if err != nil {
		return err
	}
	mp, err := txn.Blackboard().GetMapping(t.MappingID)
	if err != nil {
		_ = txn.Abort()
		return err
	}
	if v, src := args["variable"], args["source"]; v != "" && src != "" {
		mp.SetRowVariable(src, v)
	}
	mp.SetColumnCode(tgtID, code, t.Name())
	txn.Emit(wbmgr.EventMappingVector, t.MappingID+"|"+tgtID)
	return txn.Commit()
}

// CodeGenTool assembles per-column code into the whole-matrix mapping
// (task 8) and keeps it synchronized: it listens for mapping-vector
// events and regenerates ("a code generation tool similarly listens for
// these events to synchronize the assembled mapping", §5.2.2).
type CodeGenTool struct {
	// MappingID is the mapping this tool assembles.
	MappingID string
	// SourceEntityID / TargetEntityID identify the driving entities (the
	// for-loop subject and produced element).
	SourceEntityID string
	TargetEntityID string

	mu      sync.Mutex
	regens  int
	program *Program
}

// NewCodeGenTool returns a code generator bound to one mapping.
func NewCodeGenTool(mappingID, sourceEntityID, targetEntityID string) *CodeGenTool {
	return &CodeGenTool{MappingID: mappingID, SourceEntityID: sourceEntityID, TargetEntityID: targetEntityID}
}

// Name implements wbmgr.Tool.
func (t *CodeGenTool) Name() string { return "codegen" }

// Initialize subscribes to mapping-vector events.
func (t *CodeGenTool) Initialize(m *wbmgr.Manager) error {
	m.Subscribe(wbmgr.EventMappingVector, t.Name(), func(e wbmgr.Event) {
		if !strings.HasPrefix(e.Subject, t.MappingID+"|") {
			return
		}
		_ = t.Invoke(m, nil)
	})
	return nil
}

// Regenerations reports how many times the assembled mapping was rebuilt.
func (t *CodeGenTool) Regenerations() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.regens
}

// Program returns the most recently assembled program (nil before the
// first Invoke).
func (t *CodeGenTool) Program() *Program {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.program
}

// Invoke assembles all column codes into a Program and writes the
// generated XQuery to the matrix-level code annotation, firing a
// mapping-matrix event.
func (t *CodeGenTool) Invoke(m *wbmgr.Manager, _ map[string]string) error {
	txn, err := m.Begin(t.Name())
	if err != nil {
		return err
	}
	mp, err := txn.Blackboard().GetMapping(t.MappingID)
	if err != nil {
		_ = txn.Abort()
		return err
	}
	prog, err := AssembleProgram(txn.Blackboard(), mp, t.SourceEntityID, t.TargetEntityID)
	if err != nil {
		_ = txn.Abort()
		return err
	}
	mp.SetCode(prog.GenerateXQuery(), t.Name())
	t.mu.Lock()
	t.program = prog
	t.regens++
	t.mu.Unlock()
	txn.Emit(wbmgr.EventMappingMatrix, t.MappingID)
	return txn.Commit()
}

// AssembleProgramAll builds a multi-rule Program covering every target
// entity that has column code annotations. The driving source entity for
// each rule is discovered from the mapping's accepted entity-level cells
// (confidence +1, user-defined); target entities without an accepted
// source pairing are skipped with an error listing them.
func AssembleProgramAll(bb *blackboard.Blackboard, mp *blackboard.Mapping) (*Program, error) {
	srcSchema, err := bb.GetSchema(mp.SourceSchema)
	if err != nil {
		return nil, err
	}
	tgtSchema, err := bb.GetSchema(mp.TargetSchema)
	if err != nil {
		return nil, err
	}
	// Entity pairing from accepted cells.
	pairedSource := map[string]string{} // target entity ID → source entity ID
	for _, cell := range mp.UserCells() {
		if cell.Confidence < 1 {
			continue
		}
		se, te := srcSchema.Element(cell.SourceID), tgtSchema.Element(cell.TargetID)
		if se == nil || te == nil || se.Kind != model.KindEntity || te.Kind != model.KindEntity {
			continue
		}
		pairedSource[te.ID] = se.ID
	}
	// Target entities owning coded columns.
	coded := map[string]bool{}
	for _, te := range tgtSchema.ElementsOfKind(model.KindEntity) {
		for _, c := range te.Children() {
			if c.Kind == model.KindAttribute && mp.ColumnCode(c.ID) != "" {
				coded[te.ID] = true
			}
		}
	}
	prog := &Program{Name: mp.ID}
	var unpaired []string
	// Deterministic order: schema pre-order.
	for _, te := range tgtSchema.ElementsOfKind(model.KindEntity) {
		if !coded[te.ID] {
			continue
		}
		srcID, ok := pairedSource[te.ID]
		if !ok {
			unpaired = append(unpaired, te.ID)
			continue
		}
		sub, err := AssembleProgram(bb, mp, srcID, te.ID)
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, sub.Rules...)
	}
	if len(unpaired) > 0 {
		return nil, fmt.Errorf("mapgen: target entities with code but no accepted source pairing: %s",
			strings.Join(unpaired, ", "))
	}
	if len(prog.Rules) == 0 {
		return nil, fmt.Errorf("mapgen: no coded target entities in mapping %q", mp.ID)
	}
	if err := prog.Compile(); err != nil {
		return nil, err
	}
	return prog, nil
}

// AssembleProgram builds an executable Program from a mapping's column
// code annotations. The driving variable comes from the source entity's
// row variable (defaulting to its name); column rules are read from
// every annotated target column under targetEntityID.
func AssembleProgram(bb *blackboard.Blackboard, mp *blackboard.Mapping, sourceEntityID, targetEntityID string) (*Program, error) {
	srcSchema, err := bb.GetSchema(mp.SourceSchema)
	if err != nil {
		return nil, err
	}
	tgtSchema, err := bb.GetSchema(mp.TargetSchema)
	if err != nil {
		return nil, err
	}
	srcEnt := srcSchema.Element(sourceEntityID)
	if srcEnt == nil {
		return nil, fmt.Errorf("mapgen: source entity %q not in schema %s", sourceEntityID, mp.SourceSchema)
	}
	tgtEnt := tgtSchema.Element(targetEntityID)
	if tgtEnt == nil {
		return nil, fmt.Errorf("mapgen: target entity %q not in schema %s", targetEntityID, mp.TargetSchema)
	}
	variable := strings.TrimPrefix(mp.RowVariable(sourceEntityID), "$")
	if variable == "" {
		variable = varNameFor(sourceEntityID)
	}
	rule := &EntityRule{
		TargetEntity: tgtEnt.Name,
		SourceEntity: srcEnt.Name,
		Var:          variable,
	}
	for _, child := range tgtEnt.Children() {
		if child.Kind != model.KindAttribute {
			continue
		}
		code := mp.ColumnCode(child.ID)
		if code == "" {
			continue
		}
		rule.Columns = append(rule.Columns, ColumnRule{TargetField: child.Name, Code: code})
	}
	if len(rule.Columns) == 0 {
		return nil, fmt.Errorf("mapgen: no column code annotations under %q", targetEntityID)
	}
	prog := &Program{Name: mp.ID, Rules: []*EntityRule{rule}}
	if err := prog.Compile(); err != nil {
		return nil, err
	}
	return prog, nil
}
