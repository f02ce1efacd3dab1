// Command harmony runs the Harmony schema matcher on two schema files
// and prints the proposed correspondences.
//
// Schema formats are detected by extension: .xsd (XML Schema), .sql
// (SQL DDL), .er (ER text format).
//
// Usage:
//
//	harmony [flags] source target
//	harmony [flags] demo-dir-or-keyword
//
// With a single argument, harmony runs a demo pair: the first two
// schema files found under the given directory, or — when none are
// found (e.g. the "examples" keyword) — a synthetic registry pair.
//
//	-threshold f   only print links with confidence ≥ f (default 0.25)
//	-max           only each source element's best link(s)
//	-one-to-one    greedy one-to-one selection instead of all links
//	-no-flooding   disable the similarity-flooding stage
//	-thesaurus f   load extra synonym sets (one comma-separated set/line)
//	-depth n       only elements at depth ≤ n
//	-parallelism n worker pool size (0 = GOMAXPROCS, 1 = sequential)
//	-incremental   enable the score-matrix cache; with -timings, also
//	               demo a warm re-run served from it and print cache stats
//	-timings       print per-stage timings (the Figure 1 pipeline)
//	-metrics       dump the obs registry in Prometheus text format
//	-metrics-json  dump the obs registry as JSON
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	workbench "repro"
	"repro/internal/harmony"
	"repro/internal/lingo"
	"repro/internal/match"
	"repro/internal/matchcache"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/schemaset"
)

func main() {
	threshold := flag.Float64("threshold", 0.25, "minimum confidence to print")
	maxOnly := flag.Bool("max", false, "only max-confidence link(s) per source element")
	oneToOne := flag.Bool("one-to-one", false, "greedy one-to-one selection")
	noFlood := flag.Bool("no-flooding", false, "disable similarity flooding")
	thesaurusPath := flag.String("thesaurus", "", "extra thesaurus file")
	depth := flag.Int("depth", 0, "only elements at depth <= n (0 = all)")
	parallelism := flag.Int("parallelism", 0, "pipeline worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	incremental := flag.Bool("incremental", false, "enable the score-matrix cache (with -timings: demo a warm re-run)")
	timings := flag.Bool("timings", false, "print pipeline stage timings")
	metrics := flag.Bool("metrics", false, "dump obs metrics (Prometheus text format)")
	metricsJSON := flag.Bool("metrics-json", false, "dump obs metrics as JSON")
	matrix := flag.Bool("matrix", false, "print the full confidence matrix")
	dot := flag.Bool("dot", false, "emit Graphviz DOT of schemata + links")
	flag.Parse()

	var src, tgt *model.Schema
	var err error
	switch flag.NArg() {
	case 1:
		src, tgt, err = demoPair(flag.Arg(0))
		exitIf(err)
	case 2:
		src, err = loadSchema(flag.Arg(0))
		exitIf(err)
		tgt, err = loadSchema(flag.Arg(1))
		exitIf(err)
	default:
		fmt.Fprintln(os.Stderr, "usage: harmony [flags] source-schema target-schema\n       harmony [flags] demo-dir")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var ctxOpts []match.ContextOption
	if *thesaurusPath != "" {
		th := lingo.DefaultThesaurus()
		f, err := os.Open(*thesaurusPath)
		exitIf(err)
		err = th.Load(f)
		f.Close()
		exitIf(err)
		ctxOpts = append(ctxOpts, match.WithThesaurus(th))
	}

	var cache *matchcache.Cache
	if *incremental {
		cache = matchcache.New(nil)
	}
	opts := workbench.EngineOptions{
		Flooding:       !*noFlood,
		ContextOptions: ctxOpts,
		Parallelism:    *parallelism,
		Cache:          cache,
	}
	engine := workbench.NewEngine(src, tgt, opts)
	wallStart := time.Now()
	stages := engine.Run()
	wall := time.Since(wallStart)
	if *timings {
		printTimings(stages, wall, engine.Workers())
		if *incremental {
			// Warm demo: the first engine holds its matrices in the cache
			// while it lives, so a second engine over the same pair serves
			// every voter and the merged matrix straight from it.
			warm := workbench.NewEngine(src, tgt, opts)
			warmStart := time.Now()
			warmStages := warm.Run()
			warmWall := time.Since(warmStart)
			fmt.Println("warm re-run (score-matrix cache):")
			printTimings(warmStages, warmWall, warm.Workers())
			printCacheStats(cache.Stats())
		}
	}
	if *metrics || *metricsJSON {
		if *metricsJSON {
			exitIf(obs.WriteJSON(os.Stdout, obs.Default()))
		} else {
			exitIf(obs.WritePrometheus(os.Stdout, obs.Default()))
		}
		return
	}

	if *matrix {
		fmt.Print(engine.Matrix())
		return
	}
	if *oneToOne {
		for _, c := range engine.Matrix().StableMatching(*threshold) {
			fmt.Println(" ", c)
		}
		return
	}
	if *dot {
		var cells []model.MappingDOTCell
		for _, l := range engine.Links(workbench.View{
			LinkFilters: []workbench.LinkFilter{workbench.ConfidenceFilter(*threshold)},
		}) {
			cells = append(cells, model.MappingDOTCell{
				SourceID: l.Source.ID, TargetID: l.Target.ID,
				Confidence: l.Confidence, UserDefined: l.UserDefined,
			})
		}
		fmt.Print(model.MappingToDOT(src, tgt, cells))
		return
	}
	view := workbench.View{
		MaxConfidence: *maxOnly,
		LinkFilters:   []workbench.LinkFilter{workbench.ConfidenceFilter(*threshold)},
	}
	if *depth > 0 {
		view.SourceNodeFilters = []workbench.NodeFilter{harmony.DepthFilter(*depth)}
		view.TargetNodeFilters = []workbench.NodeFilter{harmony.DepthFilter(*depth)}
	}
	links := engine.Links(view)
	fmt.Printf("%d correspondences at threshold %.2f:\n", len(links), *threshold)
	for _, l := range links {
		fmt.Println(" ", l.Correspondence)
	}
}

// printTimings renders stage timings as a deterministic aligned table:
// pipeline order (voters, merge, flooding, pin-decisions), names padded
// to a common width, durations right-aligned in µs/ms/s units. A summary
// line compares the run's wall-clock against the summed per-stage CPU
// time — with parallelism > 1 the voters overlap, so cpu > wall.
func printTimings(stages []harmony.StageTiming, wall time.Duration, workers int) {
	width := len("total")
	for _, st := range stages {
		if len(st.Stage) > width {
			width = len(st.Stage)
		}
	}
	fmt.Println("pipeline stages:")
	var total float64
	for _, st := range stages {
		secs := st.Duration.Seconds()
		total += secs
		fmt.Printf("  %-*s %s\n", width, st.Stage, fmtSeconds(secs))
	}
	fmt.Printf("  %-*s %s\n", width, "total", fmtSeconds(total))
	fmt.Printf("wall %s vs cpu %s at parallelism %d\n",
		strings.TrimSpace(fmtSeconds(wall.Seconds())), strings.TrimSpace(fmtSeconds(total)), workers)
}

// printCacheStats summarizes the score-matrix cache after a -incremental
// timing demo.
func printCacheStats(st matchcache.Stats) {
	fmt.Printf("match cache: %d entries, %d hits, %d misses, %d evictions (hit ratio %.0f%%)\n",
		st.Entries, st.Hits, st.Misses, st.Evictions, 100*st.HitRatio())
}

// fmtSeconds formats a duration in seconds with a fixed 10-rune width:
// µs below 1ms, ms below 1s, seconds above.
func fmtSeconds(secs float64) string {
	switch {
	case secs < 1e-3:
		return fmt.Sprintf("%8.1fµs", secs*1e6)
	case secs < 1:
		return fmt.Sprintf("%8.2fms", secs*1e3)
	default:
		return fmt.Sprintf("%8.3fs ", secs)
	}
}

// demoPair resolves harmony's single-argument form: the first two schema
// files under the directory (sorted recursive walk), or a synthetic
// registry pair when the argument names no usable directory (e.g. the
// "examples" keyword) or the directory holds fewer than two schemata.
func demoPair(arg string) (*model.Schema, *model.Schema, error) {
	if fi, err := os.Stat(arg); err == nil && !fi.IsDir() {
		// A single schema file is an arity mistake, not a demo request.
		return nil, nil, fmt.Errorf("need two schema files (got only %q); pass a directory for demo mode", arg)
	}
	var files []string
	_ = filepath.WalkDir(arg, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		switch strings.ToLower(filepath.Ext(path)) {
		case ".xsd", ".xml", ".sql", ".ddl", ".er":
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	if len(files) >= 2 {
		src, err := loadSchema(files[0])
		if err != nil {
			return nil, nil, err
		}
		tgt, err := loadSchema(files[1])
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "harmony: demo pair %s vs %s\n", files[0], files[1])
		return src, tgt, nil
	}
	// Synthetic fallback: one registry model perturbed into a pair, the
	// same construction the evaluation harness uses.
	cfg := registry.DefaultConfig()
	cfg.Models = 1
	cfg.ElementsTotal = 12
	cfg.AttributesTotal = 60
	cfg.DomainValuesTotal = 90
	reg := registry.Generate(cfg)
	src := reg.Models[0]
	tgt, _ := registry.Perturb(src, registry.DefaultPerturb())
	fmt.Fprintf(os.Stderr, "harmony: no schema files under %q; using a synthetic registry pair\n", arg)
	return src, tgt, nil
}

func loadSchema(path string) (*model.Schema, error) {
	name, format, err := schemaset.SchemaNameFormat(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return schemaset.ParseSchema(name, format, f)
}

func exitIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "harmony:", err)
		os.Exit(1)
	}
}
