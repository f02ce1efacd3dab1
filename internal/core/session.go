package core

import (
	"context"
	"fmt"

	"repro/internal/blackboard"
	"repro/internal/harmony"
	"repro/internal/instance"
	"repro/internal/mapgen"
	"repro/internal/model"
	"repro/internal/wbmgr"
)

// IntegrationSession drives one end-to-end schema integration through
// the workbench: the §5.3 case-study choreography as a reusable
// orchestration. The matcher (Harmony) and the mapper/codegen tools
// share state only through the blackboard and events, exactly as the
// paper prescribes.
type IntegrationSession struct {
	Manager *wbmgr.Manager
	// MappingID names the session's mapping in the IB library.
	MappingID string

	matcher *harmony.Session
	mapper  *mapgen.MapperTool
	codegen *mapgen.CodeGenTool

	targetName   string
	sourceEntity string
	targetEntity string
}

// NewIntegrationSession stores both schemata on a fresh workbench
// (task 1 and task 2: obtain source and target), creates the mapping and
// registers the mapper and code generator tools.
func NewIntegrationSession(mappingID string, source, target *model.Schema, sourceEntityID, targetEntityID string) (*IntegrationSession, error) {
	m := wbmgr.New()

	// Loaders run inside a transaction and announce the schema graphs.
	err := m.Do(context.Background(), "loader", func(txn *wbmgr.Txn) error {
		for _, sc := range []*model.Schema{source, target} {
			if _, err := txn.Blackboard().PutSchema(sc); err != nil {
				return err
			}
			txn.Emit(wbmgr.EventSchemaGraph, sc.Name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if _, err := m.Blackboard().NewMapping(mappingID, source.Name, target.Name); err != nil {
		return nil, err
	}

	s := &IntegrationSession{
		Manager:      m,
		MappingID:    mappingID,
		matcher:      harmony.NewSession(harmony.Options{Flooding: true}),
		targetName:   target.Name,
		sourceEntity: sourceEntityID,
		targetEntity: targetEntityID,
	}
	s.mapper = mapgen.NewMapperTool(mappingID)
	s.codegen = mapgen.NewCodeGenTool(mappingID, sourceEntityID, targetEntityID)
	if err := m.Register(s.mapper); err != nil {
		return nil, err
	}
	if err := m.Register(s.codegen); err != nil {
		return nil, err
	}
	return s, nil
}

// Engine returns the Harmony engine of the session's last Match; it
// carries the decisions as of that Match.
func (s *IntegrationSession) Engine() (*harmony.Engine, error) {
	if e := s.matcher.Engine(); e != nil {
		return e, nil
	}
	return nil, fmt.Errorf("core: no match has run in session %q", s.MappingID)
}

// Match runs the session's Harmony engine — cold the first time, then an
// incremental rematch that pins the engineer's decisions — and publishes
// its links at or above the threshold in one transaction (task 3). It
// returns the number of those links, whether or not the publish had to
// rewrite their cells; decisions are never overwritten.
func (s *IntegrationSession) Match(threshold float64) (int, error) {
	mp, err := s.Mapping()
	if err != nil {
		return 0, err
	}
	res, err := s.matcher.Rematch(context.Background(), s.Manager.Blackboard(), mp, harmony.Dirty{}, threshold)
	if err != nil {
		return 0, err
	}
	err = s.Manager.Do(context.Background(), "harmony", func(txn *wbmgr.Txn) error {
		_, perr := res.Publish(txn, mp)
		return perr
	})
	return len(res.Links), err
}

// Accept records an engineer decision as a user-defined cell
// (confidence exactly +1, per §5.1.2); the next Match pins it.
func (s *IntegrationSession) Accept(srcID, tgtID string) error {
	return s.decide(srcID, tgtID, 1)
}

// Reject records a rejection (confidence exactly -1).
func (s *IntegrationSession) Reject(srcID, tgtID string) error {
	return s.decide(srcID, tgtID, -1)
}

func (s *IntegrationSession) decide(srcID, tgtID string, conf float64) error {
	mp, err := s.Manager.Blackboard().GetMapping(s.MappingID)
	if err != nil {
		return err
	}
	if err := mp.CheckPair(srcID, tgtID); err != nil {
		return err
	}
	return s.Manager.Do(context.Background(), "engineer", func(txn *wbmgr.Txn) error {
		if err := mp.SetCell(srcID, tgtID, conf, true, "engineer"); err != nil {
			return err
		}
		txn.Emit(wbmgr.EventMappingCell, fmt.Sprintf("%s|%s|%s", s.MappingID, srcID, tgtID))
		return nil
	})
}

// WriteCode records a column transformation via the mapper tool (tasks
// 4–7), which fires the mapping-vector event and thereby regenerates the
// assembled mapping (task 8).
func (s *IntegrationSession) WriteCode(sourceRowID, variable, targetColID, code string) error {
	return s.Manager.Invoke("mapper", map[string]string{
		"source":   sourceRowID,
		"variable": variable,
		"target":   targetColID,
		"code":     code,
	})
}

// Program returns the assembled executable mapping (nil before any code
// was written).
func (s *IntegrationSession) Program() *mapgen.Program { return s.codegen.Program() }

// GeneratedCode returns the whole-matrix code annotation from the IB.
func (s *IntegrationSession) GeneratedCode() (string, error) {
	mp, err := s.Manager.Blackboard().GetMapping(s.MappingID)
	if err != nil {
		return "", err
	}
	return mp.Code(), nil
}

// Execute runs the assembled mapping over source instances and verifies
// the output against the target schema (task 9), returning the produced
// dataset and violations.
func (s *IntegrationSession) Execute(src *instance.Dataset) (*instance.Dataset, []instance.Violation, error) {
	prog := s.Program()
	if prog == nil {
		return nil, nil, fmt.Errorf("core: no program assembled; write column code first")
	}
	tgt, err := s.Manager.Blackboard().GetSchema(s.targetName)
	if err != nil {
		return nil, nil, err
	}
	return prog.Verify(src, tgt)
}

// IntegrateInstances applies tasks 10–11 to a produced dataset: link
// co-referent records, then clean domain violations.
func (s *IntegrationSession) IntegrateInstances(ds *instance.Dataset, link instance.LinkOptions) (*instance.Dataset, []instance.Violation, error) {
	tgt, err := s.Manager.Blackboard().GetSchema(s.targetName)
	if err != nil {
		return nil, nil, err
	}
	res := instance.Link(ds.Records, link)
	out := &instance.Dataset{SchemaName: ds.SchemaName, Records: res.Merged}
	viols := instance.Clean(tgt, out, instance.CleanOptions{DropViolations: true})
	return out, viols, nil
}

// Mapping opens the session's mapping handle.
func (s *IntegrationSession) Mapping() (*blackboard.Mapping, error) {
	return s.Manager.Blackboard().GetMapping(s.MappingID)
}
