// Command corona-chaos runs the scripted torture suite: declarative
// fault scenarios (healing partitions, rack failures, churn, flash
// crowds, slow links, and their composition) against a simulated Corona
// cloud, followed by the machine-checked invariant sweep — exactly one
// owner per channel, no black-holed subscriber, monotonic versions,
// exactly-once delivery after convergence, consistent delegate rosters.
//
// Usage:
//
//	corona-chaos                              # every scenario, CI scale
//	corona-chaos -scenario churn -seed 7      # one scenario, custom seed
//	corona-chaos -scale long                  # 4096 nodes, 10^5 subs
//	corona-chaos -o BENCH_scale.json          # write the bench report
//
// The exit status is 0 only if every scenario converged with zero
// invariant violations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"corona/internal/chaos"
)

func main() {
	scenario := flag.String("scenario", "all", "scenario name or 'all' (use -list to enumerate)")
	scaleName := flag.String("scale", "ci", "ci or long")
	seed := flag.Int64("seed", 0, "override the scale's scenario seed when nonzero")
	out := flag.String("o", "", "write a bench2json-shaped report (BENCH_scale.json) to this path")
	list := flag.Bool("list", false, "list scenarios and exit")
	flag.Parse()

	if *list {
		for _, sc := range chaos.Scenarios() {
			fmt.Printf("%-16s %s\n", sc.Name, sc.Description)
		}
		return
	}

	var cfg chaos.Config
	switch *scaleName {
	case "ci":
		cfg = chaos.CIScale()
	case "long":
		cfg = chaos.LongScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want ci or long)\n", *scaleName)
		os.Exit(2)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	var selected []chaos.Scenario
	if *scenario == "all" {
		selected = chaos.Scenarios()
	} else {
		sc, ok := chaos.ScenarioByName(*scenario)
		if !ok {
			var names []string
			for _, s := range chaos.Scenarios() {
				names = append(names, s.Name)
			}
			fmt.Fprintf(os.Stderr, "unknown scenario %q (want one of %s, or all)\n",
				*scenario, strings.Join(names, ", "))
			os.Exit(2)
		}
		selected = []chaos.Scenario{sc}
	}

	failed := false
	var results []chaos.Result
	for _, sc := range selected {
		fmt.Printf("=== %s (nodes=%d channels=%d subscriptions=%d seed=%d) ===\n",
			sc.Name, cfg.Nodes, cfg.Channels, cfg.Subscriptions, cfg.Seed)
		res := chaos.Execute(sc, cfg)
		results = append(results, res)
		fmt.Printf("converged=%v, %d deliveries (%d dup), %d lost channels, "+
			"peak owner %d notifies, wall %v\n",
			res.Converged, res.Deliveries, res.Duplicates,
			res.LostChannels, res.PeakOwnerNotifies, res.WallTime.Round(res.WallTime/100+1))
		if res.DeliveryLatencyP50 > 0 {
			fmt.Printf("delivery latency (detection to client, virtual time): p50=%v p99=%v\n",
				res.DeliveryLatencyP50, res.DeliveryLatencyP99)
		}
		for _, v := range res.Violations {
			fmt.Printf("  violation %v\n", v)
		}
		if res.Failed() || !res.Converged {
			failed = true
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *out, err)
			os.Exit(1)
		}
		if err := chaos.WriteReport(f, *scaleName, cfg.Seed, results); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "close %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d scenarios)\n", *out, len(results))
	}
	if failed {
		os.Exit(1)
	}
}
