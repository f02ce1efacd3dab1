package blackboard

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/rdf"
	"repro/internal/registry"
)

// reviewCells is the published cell count of the review workload's
// mapping: a 1000-element registry pair matched at threshold 0.25.
const reviewCells = 3106

// reviewMapping builds a blackboard at the review workload's size: a
// 1000-element registry model (100 elements, 900 attributes, 1200 codes)
// and its perturbation, and one mapping over them holding reviewCells
// machine cells, about three per source element. It returns the mapping
// and its cell pairs in write order.
func reviewMapping(tb testing.TB) (*Mapping, [][2]string) {
	tb.Helper()
	cfg := registry.DefaultConfig()
	cfg.Seed, cfg.Models = 1, 1
	cfg.ElementsTotal, cfg.AttributesTotal, cfg.DomainValuesTotal = 100, 900, 1200
	src := registry.Generate(cfg).Models[0]
	pcfg := registry.DefaultPerturb()
	pcfg.Seed = 2
	tgt, _ := registry.Perturb(src, pcfg)
	b := New()
	if _, err := b.PutSchema(src); err != nil {
		tb.Fatal(err)
	}
	if _, err := b.PutSchema(tgt); err != nil {
		tb.Fatal(err)
	}
	m, err := b.NewMapping("review-0", src.Name, tgt.Name)
	if err != nil {
		tb.Fatal(err)
	}
	srcEls, tgtEls := src.Elements(), tgt.Elements()
	pairs := make([][2]string, 0, reviewCells)
	for k := 0; len(pairs) < reviewCells; k++ {
		i := k % len(srcEls)
		j := (i + k/len(srcEls)) % len(tgtEls)
		pair := [2]string{srcEls[i].ID, tgtEls[j].ID}
		if err := m.SetCell(pair[0], pair[1], 0.25+float64(k%70)/100, false, "harmony"); err != nil {
			tb.Fatal(err)
		}
		pairs = append(pairs, pair)
	}
	return m, pairs
}

// BenchmarkMappingCells reads the whole matrix, as a view request does:
// exact copies the table a first read kept, stale makes a raw triple
// write before each read, so every read re-reads the triples.
func BenchmarkMappingCells(b *testing.B) {
	m, _ := reviewMapping(b)
	g := m.b.Graph()
	pad := rdf.IRI(wbNS + "pad")
	for _, stale := range []bool{false, true} {
		name := "exact"
		if stale {
			name = "stale"
		}
		b.Run(name, func(b *testing.B) {
			m.Cells()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if stale {
					g.SetOne(pad, predConfidence, rdf.IntLiteral(i))
				}
				if got := len(m.Cells()); got != reviewCells {
					b.Fatalf("Cells = %d, want %d", got, reviewCells)
				}
			}
		})
	}
}

// BenchmarkMappingGetCell reads one cell, as the publish loop's
// skip-unchanged test does for every link, from a viewed mapping's exact
// table and from the graph of an unviewed one.
func BenchmarkMappingGetCell(b *testing.B) {
	m, pairs := reviewMapping(b)
	for _, viewed := range []bool{false, true} {
		name := "table=none"
		if viewed {
			name = "table=exact"
			m.Cells()
		}
		b.Run(name, func(b *testing.B) {
			if m.TableExact() != viewed {
				b.Fatalf("table exact %v, want %v", !viewed, viewed)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, ok := m.GetCell(p[0], p[1]); !ok {
					b.Fatalf("cell %v missing", p)
				}
			}
		})
	}
}

// BenchmarkMappingSetCell overwrites one existing cell with a new score,
// as a publish or a decide does, on an unviewed mapping (no table) and
// on a viewed one, whose exact table every write carries.
func BenchmarkMappingSetCell(b *testing.B) {
	for _, viewed := range []bool{false, true} {
		name := "table=none"
		if viewed {
			name = "table=exact"
		}
		b.Run(name, func(b *testing.B) {
			m, pairs := reviewMapping(b)
			if viewed {
				m.Cells()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if err := m.SetCell(p[0], p[1], float64(i%200)/200, false, "harmony"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if viewed && len(m.b.tables.m) != 1 {
				b.Fatal("the writes dropped the table")
			}
		})
	}
}

// BenchmarkMappingAddCells publishes 30,000 new cells into a mapping and
// then views it once, with the mapping viewed before the publish (its
// table takes every new cell) and unviewed. Adding a cell never shifts
// the table, so both stay linear in the cells written.
func BenchmarkMappingAddCells(b *testing.B) {
	const adds = 30_000
	m, _ := reviewMapping(b)
	bb := m.b
	src, _ := bb.GetSchema(m.SourceSchema)
	tgt, _ := bb.GetSchema(m.TargetSchema)
	srcEls, tgtEls := src.Elements(), tgt.Elements()
	for _, viewed := range []bool{false, true} {
		name := "unviewed"
		if viewed {
			name = "viewed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				add, err := bb.NewMapping("add", m.SourceSchema, m.TargetSchema)
				if err != nil {
					b.Fatal(err)
				}
				if viewed {
					add.Cells()
				}
				b.StartTimer()
				for k := 0; k < adds; k++ {
					s, t := srcEls[k%len(srcEls)], tgtEls[(k/len(srcEls)+k)%len(tgtEls)]
					if err := add.SetCell(s.ID, t.ID, 0.5, false, "harmony"); err != nil {
						b.Fatal(err)
					}
				}
				if viewed && bb.tables.m["add"] == nil {
					b.Fatal("the publish dropped the table")
				}
				if got := len(add.Cells()); got != adds {
					b.Fatalf("Cells = %d, want %d", got, adds)
				}
				b.StopTimer()
				if err := bb.DeleteMapping("add"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkPutSchemaRePut re-puts a 300-element schema whose versions
// differ in one attribute's doc, into graphs padded with unrelated
// triples to ~50k and ~250k, and reports the journal ops per put. A
// re-put costs the schema and its edit, not the graph: both sizes
// should run at the same speed and the same op count.
func BenchmarkPutSchemaRePut(b *testing.B) {
	base := versionSchema(1, 30, 270, 300)
	versions := [2]*model.Schema{copySchema(base, base.Name), copySchema(base, base.Name)}
	versions[1].ElementsOfKind(model.KindAttribute)[0].Doc = "rewritten"
	for _, pad := range []int{50_000, 250_000} {
		b.Run(fmt.Sprintf("graph=%dk", pad/1000), func(b *testing.B) {
			bb := New()
			if _, err := bb.PutSchema(versions[0]); err != nil {
				b.Fatal(err)
			}
			g := bb.Graph()
			for i := g.Len(); i < pad; i++ {
				g.Add(rdf.Triple{S: rdf.IRI(fmt.Sprintf("%spad/%d", wbNS, i)), P: predConfidence, O: rdf.FloatLiteral(float64(i))})
			}
			ops := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := g.Savepoint()
				if _, err := bb.PutSchema(versions[(i+1)%2]); err != nil {
					b.Fatal(err)
				}
				ops += len(g.ChangesSince(sp))
				g.Release(sp)
			}
			b.ReportMetric(float64(ops)/float64(b.N), "ops/put")
		})
	}
}

// onboardModel generates a registry model of about n schema elements
// in the proportions perfbench onboard uses (100 elements, 900
// attributes, 1200 codes per 1000), renamed so models never collide.
func onboardModel(seed int64, n int, name string) *model.Schema {
	return copySchema(versionSchema(seed, n/10, n-n/10, n*6/5), name)
}

// BenchmarkPutSchema puts a 400-element schema, the largest onboard
// loads, into a blackboard already holding 20 onboard-sized pairs
// (100 to 400 elements, each pair with a mapping of one cell per source
// element), inside a savepoint as a load transaction runs it; the put
// is rolled back off the clock. It reports the time and allocation per
// triple put, and the live heap per triple of the graph holding it.
func BenchmarkPutSchema(b *testing.B) {
	bb := New()
	for k := 0; k < 20; k++ {
		n := 100 + 300*k/19
		src := onboardModel(int64(2*k+1), n, fmt.Sprintf("onboard-%02d-src", k))
		tgt, _ := registry.Perturb(src, registry.DefaultPerturb())
		tgt = copySchema(tgt, fmt.Sprintf("onboard-%02d-tgt", k))
		for _, s := range []*model.Schema{src, tgt} {
			if _, err := bb.PutSchema(s); err != nil {
				b.Fatal(err)
			}
		}
		m, err := bb.NewMapping(fmt.Sprintf("onboard-%02d", k), src.Name, tgt.Name)
		if err != nil {
			b.Fatal(err)
		}
		srcEls, tgtEls := src.Elements(), tgt.Elements()
		for i, e := range srcEls {
			if err := m.SetCell(e.ID, tgtEls[i*7%len(tgtEls)].ID, 0.25+float64(i%70)/100, false, "harmony"); err != nil {
				b.Fatal(err)
			}
		}
	}
	s := onboardModel(99, 400, "onboard-new")
	g := bb.Graph()
	before := g.Len()
	var m0, m1 runtime.MemStats
	var alloc uint64
	triples, heap := 0, 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.ReadMemStats(&m0)
		sp := g.Savepoint()
		b.StartTimer()
		if _, err := bb.PutSchema(s); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		triples = g.Len() - before
		if i == 0 {
			runtime.GC()
			runtime.ReadMemStats(&m1)
			heap = float64(m1.HeapAlloc) / float64(g.Len())
		}
		g.Rollback(sp)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*triples), "ns/triple")
	b.ReportMetric(float64(alloc)/float64(b.N*triples), "B/triple")
	b.ReportMetric(heap, "live-B/triple")
	b.ReportMetric(float64(triples), "triples/put")
}
