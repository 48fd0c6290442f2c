// Command corona-sim regenerates the paper's evaluation artifacts
// (Figures 3-10 and Table 2) from the discrete-event simulator.
//
// Usage:
//
//	corona-sim -experiment table2            # bench scale
//	corona-sim -experiment fig3 -scale paper # full paper scale
//	corona-sim -experiment all
//
// Experiments: fig3, fig4 (both run as fig34), fig5, fig6 (fig56),
// fig7, fig8 (fig78), fig9, fig10 (fig910), table2, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"corona/internal/experiments"
)

func main() {
	experiment := flag.String("experiment", "table2", "which artifact to regenerate: fig34, fig56, fig78, fig910, table2, all")
	scaleName := flag.String("scale", "bench", "bench, paper, or tiny")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	simScale, depScale := pickScales(*scaleName)
	simScale.Seed = *seed
	depScale.Seed = *seed

	start := time.Now()
	ran := false
	want := normalize(*experiment)
	run := func(name string, fn func() string) {
		if want != "all" && want != name {
			return
		}
		ran = true
		fmt.Printf("=== %s (nodes=%d channels=%d subscriptions=%d) ===\n",
			name, simScale.Nodes, simScale.Channels, simScale.Subscriptions)
		fmt.Println(fn())
	}

	run("fig34", func() string { return experiments.RunFigure34(simScale).Render() })
	run("fig56", func() string { return experiments.RunFigure56(simScale).Render() })
	run("fig78", func() string { return experiments.RunFigure78(simScale).Render() })
	run("table2", func() string { return experiments.RunTable2(simScale).Render() })
	if want == "all" || want == "fig910" {
		ran = true
		fmt.Printf("=== fig910 (deployment: nodes=%d channels=%d subscriptions=%d) ===\n",
			depScale.Nodes, depScale.Channels, depScale.Subscriptions)
		fmt.Println(experiments.RunFigure910(depScale).Render())
	}

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want fig34, fig56, fig78, fig910, table2, all)\n", *experiment)
		os.Exit(2)
	}
	// Wall time goes to stderr so stdout is a pure function of the seed.
	fmt.Fprintf(os.Stderr, "completed in %v\n", time.Since(start).Round(time.Millisecond))
}

// normalize maps individual figure names onto their combined runners.
func normalize(name string) string {
	switch strings.ToLower(name) {
	case "fig3", "fig4", "fig34":
		return "fig34"
	case "fig5", "fig6", "fig56":
		return "fig56"
	case "fig7", "fig8", "fig78":
		return "fig78"
	case "fig9", "fig10", "fig910":
		return "fig910"
	case "table2":
		return "table2"
	case "all":
		return "all"
	default:
		return name
	}
}

func pickScales(name string) (experiments.Scale, experiments.Scale) {
	switch name {
	case "paper":
		return experiments.PaperSimulation(), experiments.PaperDeployment()
	case "tiny":
		return experiments.TinySimulation(), experiments.BenchDeployment()
	default:
		return experiments.BenchSimulation(), experiments.BenchDeployment()
	}
}
