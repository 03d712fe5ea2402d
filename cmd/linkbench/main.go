// Command linkbench regenerates the paper's evaluation artifacts (Tables
// 1-3, Figures 4-6, plus the runtime-optimization ablation) at configurable
// scale. End-to-end performance is measured by bash perfbench/run.sh.
//
// Usage:
//
//	linkbench -all
//	linkbench -table 2 -small 50000 -large 500000
//	linkbench -figure 5 -cache 75000
package main

import (
	"flag"
	"fmt"
	"os"

	"db2graph/internal/experiments"
	"db2graph/internal/linkbench"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate a paper table (1, 2, or 3)")
		figure   = flag.Int("figure", 0, "regenerate a paper figure (4, 5, or 6)")
		ablation = flag.Bool("ablation", false, "run the runtime-optimization ablation")
		layouts  = flag.Bool("layouts", false, "compare the split vs single relational layouts")
		all      = flag.Bool("all", false, "run every experiment")
		small    = flag.Int("small", 0, "small dataset vertex count")
		large    = flag.Int("large", 0, "large dataset vertex count")
		cache    = flag.Int("cache", 0, "GDB-X cache budget in vertices")
		ops      = flag.Int("ops", 0, "latency operations per query type")
		clients  = flag.Int("clients", 0, "throughput client count")
		perCli   = flag.Int("ops-per-client", 0, "throughput operations per client")
		layout   = flag.String("layout", "split", "relational layout: split or single")
		seed     = flag.Int64("seed", 42, "dataset generation seed")
	)
	flag.Parse()

	scale := experiments.DefaultScale()
	if *small > 0 {
		scale.SmallVertices = *small
	}
	if *large > 0 {
		scale.LargeVertices = *large
	}
	if *cache > 0 {
		scale.CacheVertexBudget = *cache
	}
	if *ops > 0 {
		scale.LatencyOps = *ops
	}
	if *clients > 0 {
		scale.Clients = *clients
	}
	if *perCli > 0 {
		scale.OpsPerClient = *perCli
	}
	scale.Seed = *seed
	switch *layout {
	case "split":
		scale.Layout = linkbench.LayoutSplit
	case "single":
		scale.Layout = linkbench.LayoutSingle
	default:
		fmt.Fprintf(os.Stderr, "unknown layout %q\n", *layout)
		os.Exit(2)
	}

	w := os.Stdout
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	ran := false
	if *all || *table == 1 {
		experiments.PrintTable1(w)
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *table == 2 {
		scale.RunTable2(w)
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *table == 3 {
		if _, err := scale.RunTable3(w); err != nil {
			fail(err)
		}
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *figure == 4 {
		if _, err := scale.RunFigure4(w); err != nil {
			fail(err)
		}
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *figure == 5 {
		if _, err := scale.RunFigure5(w); err != nil {
			fail(err)
		}
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *figure == 6 {
		if _, err := scale.RunFigure6(w); err != nil {
			fail(err)
		}
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *ablation {
		if _, err := scale.RunAblation(w); err != nil {
			fail(err)
		}
		fmt.Fprintln(w)
		ran = true
	}
	if *all || *layouts {
		if _, err := scale.RunLayoutComparison(w); err != nil {
			fail(err)
		}
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
