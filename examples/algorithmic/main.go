// Algorithmic cross-validation: the statistical workload models
// (internal/workload) are calibrated to the paper's description of each
// benchmark; this example checks them against ground truth by *actually
// executing* PageRank and BFS over a Kronecker graph laid out in the shared
// heap (internal/gapbs), and comparing the scheme ordering both trace
// sources produce. For each workload it prints whether both sources agree
// on the sign of PIPM's speedup over native minus one: that is, whether
// PIPM wins, loses or ties on both.
package main

import (
	"fmt"
	"log"

	"pipm"
)

const (
	records = 200_000
	seed    = 1
)

func main() {
	cfg := pipm.ScaledConfig()
	cfg.CoresPerHost = 2

	g := pipm.KroneckerGraph(13, 16, seed) // 8k vertices, ~128k edges
	fmt.Printf("graph: 2^13 vertices, %d edges (Kronecker)\n\n", g.M())

	fmt.Printf("%-26s %10s %10s %12s\n", "trace source", "native", "pipm", "pipm speedup")
	// algo[name] is PIPM's speedup over native on the executed algorithm;
	// the statistical model of the same name is its pair.
	algo := map[string]float64{}
	show := func(source string, nat, pip pipm.Result) float64 {
		sp := pipm.Speedup(pip, nat)
		fmt.Printf("%-26s %10v %10v %11.2fx\n", source, nat.ExecTime, pip.ExecTime, sp)
		return sp
	}
	for _, k := range []pipm.GraphKernel{pipm.KernelPageRank, pipm.KernelBFS} {
		algo[k.String()] = show("algorithmic "+k.String(),
			runGraph(cfg, g, k, pipm.Native), runGraph(cfg, g, k, pipm.PIPM))
	}
	for _, op := range []pipm.StoreOp{pipm.StoreTPCC, pipm.StoreYCSB} {
		algo[op.String()] = show("algorithmic "+op.String(),
			runStore(cfg, op, pipm.Native), runStore(cfg, op, pipm.PIPM))
	}
	names := []string{"pr", "bfs", "tpcc", "ycsb"}
	stat := map[string]float64{}
	for _, name := range names {
		wl, err := pipm.WorkloadByName(name)
		if err != nil {
			log.Fatal(err)
		}
		nat, err := pipm.Run(cfg, wl, pipm.Native, records, seed)
		if err != nil {
			log.Fatal(err)
		}
		pip, err := pipm.Run(cfg, wl, pipm.PIPM, records, seed)
		if err != nil {
			log.Fatal(err)
		}
		stat[name] = show("statistical "+name, nat, pip)
	}

	fmt.Println("\nDo both trace sources agree on whether PIPM beats native?")
	agree := 0
	for _, name := range names {
		a, s := algo[name], stat[name]
		verdict := "agree"
		if sign(a-1) == sign(s-1) {
			agree++
		} else {
			verdict = "DISAGREE"
		}
		fmt.Printf("  %-5s algorithmic %.2fx (%s), statistical %.2fx (%s): %s\n",
			name, a, outcome(a), s, outcome(s), verdict)
	}
	fmt.Printf("%d of %d pairs agree.\n", agree, len(names))
}

// sign returns -1, 0 or 1 as x is negative, zero or positive.
func sign(x float64) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// outcome names what a PIPM-over-native speedup means.
func outcome(speedup float64) string {
	return [...]string{"PIPM slower", "tie", "PIPM faster"}[sign(speedup-1)+1]
}

func runStore(cfg pipm.Config, op pipm.StoreOp, s pipm.Scheme) pipm.Result {
	m, err := pipm.NewMachine(cfg, s)
	if err != nil {
		log.Fatal(err)
	}
	if err := pipm.AttachStoreWorkload(m, op, 16, records, seed); err != nil {
		log.Fatal(err)
	}
	if err := m.Run(); err != nil {
		log.Fatal(err)
	}
	return pipm.Result{Scheme: s, ExecTime: m.ExecTime(), LocalHitRate: m.Stats().LocalHitRate()}
}

func runGraph(cfg pipm.Config, g *pipm.Graph, k pipm.GraphKernel, s pipm.Scheme) pipm.Result {
	m, err := pipm.NewMachine(cfg, s)
	if err != nil {
		log.Fatal(err)
	}
	if err := pipm.AttachGraphKernel(m, g, k, records, seed); err != nil {
		log.Fatal(err)
	}
	if err := m.Run(); err != nil {
		log.Fatal(err)
	}
	col := m.Stats()
	return pipm.Result{
		Scheme:       s,
		ExecTime:     m.ExecTime(),
		IPC:          m.IPC(),
		LocalHitRate: col.LocalHitRate(),
		Promotions:   col.Promotions,
		LinesMoved:   col.LinesMoved,
	}
}
