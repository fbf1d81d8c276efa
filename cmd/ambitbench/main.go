// Command ambitbench regenerates the tables and figures of the Ambit paper
// (Seshadri et al., MICRO-50, 2017) from the simulation models in this
// repository.
//
// Usage:
//
//	ambitbench -list
//	ambitbench                  # run every experiment
//	ambitbench fig9 table3      # run selected experiments
//	ambitbench -iterations 100000 table2
//	ambitbench -json out.json   # machine-readable benchmark report (direct ops, host I/O, Func.Run)
//	ambitbench -json out.json -run 'xor'   # only grid entries matching a regexp
//	ambitbench -compare BENCH_baseline.json BENCH_pr4.json
//
// Experiments: table1, table2, worstcase, fig8, fig9, table3, table4, aap,
// fig10, fig11, fig12, batch, extensions, faults.  The batch experiment
// exercises the batch execution engine (ambit.Batch): independent operations
// spread across banks overlap on per-bank timelines instead of serializing
// on the global clock.  The faults experiment sweeps TRA/DCC failure rates
// and compares raw results against the TMR + retry + quarantine reliability
// policy (also available as `ambitsim -faults`).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ambit"
	"ambit/internal/exp"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ambitbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	iterations := flag.Int("iterations", 100000, "Monte-Carlo iterations per variation level (table2)")
	seed := flag.Int64("seed", 42, "random seed for Monte-Carlo experiments")
	list := flag.Bool("list", false, "list available experiments and exit")
	traceOut := flag.String("trace", "", "write a chrome://tracing JSON trace of the experiments' DRAM commands to this file")
	metrics := flag.Bool("metrics", false, "print Prometheus-format histograms aggregated across all experiments")
	jsonOut := flag.String("json", "", "run the benchmark grid and write a machine-readable report to this file")
	runFilter := flag.String("run", "", "with -json, run only grid benchmarks whose name matches this regexp (a filter matching nothing is an error)")
	maxprocs := flag.String("maxprocs", "", "with -json, comma-separated GOMAXPROCS settings to sweep (e.g. 1,4); each result is tagged with its setting")
	cpuProfile := flag.String("cpuprofile", "", "with -json, write a pprof CPU profile of the benchmark run to this file")
	compare := flag.Bool("compare", false, "compare two benchmark reports: ambitbench -compare old.json new.json")
	threshold := flag.Float64("threshold", -1, "with -compare, exit nonzero when any benchmark's ns/op regresses by more than this percentage (negative = informational only)")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(exp.Names(), "\n"))
		fmt.Println("\nbenchmark grid (-json; filter with -run):")
		for _, name := range benchGridNames() {
			fmt.Println("  " + name)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fail("-compare needs exactly two report files (old.json new.json)")
		}
		regressions, err := runCompare(flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fail("%v", err)
		}
		if *threshold >= 0 && len(regressions) > 0 {
			fail("%d benchmark(s) regressed beyond %.1f%%: %s",
				len(regressions), *threshold, strings.Join(regressions, ", "))
		}
		return
	}
	if *jsonOut != "" {
		var procs []int
		if *maxprocs != "" {
			for _, part := range strings.Split(*maxprocs, ",") {
				var p int
				if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &p); err != nil || p <= 0 {
					fail("-maxprocs %q: want comma-separated positive integers", *maxprocs)
				}
				procs = append(procs, p)
			}
		}
		if err := runBenchJSON(*jsonOut, *runFilter, procs, *cpuProfile); err != nil {
			fail("%v", err)
		}
		fmt.Printf("benchmarks: wrote %s\n", *jsonOut)
		return
	}
	if *runFilter != "" {
		fail("-run only filters the -json benchmark grid; pass -json out.json")
	}
	if *maxprocs != "" || *cpuProfile != "" {
		fail("-maxprocs and -cpuprofile apply to the -json benchmark grid; pass -json out.json")
	}

	// One tracer and one registry are shared by every System the
	// experiments construct, so the output aggregates the whole run.
	var obsOpts []ambit.Option
	var traceFile *os.File
	var tracer *ambit.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail("%v", err)
		}
		traceFile = f
		tracer = ambit.NewTracer(ambit.NewJSONLSink(f))
		obsOpts = append(obsOpts, ambit.WithTracer(tracer))
	}
	var reg *ambit.MetricsRegistry
	if *metrics {
		reg = ambit.NewMetrics()
		obsOpts = append(obsOpts, ambit.WithMetrics(reg))
	}
	if len(obsOpts) > 0 {
		exp.SetObserve(obsOpts...)
	}

	names := flag.Args()
	if len(names) == 0 {
		names = exp.Names()
	}
	for _, name := range names {
		out, err := exp.Run(name, *iterations, *seed)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("=== %s ===\n%s\n", name, out)
	}
	if traceFile != nil {
		if err := tracer.Flush(); err != nil {
			fail("trace flush: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			fail("trace close: %v", err)
		}
		fmt.Printf("trace: wrote %s (load in chrome://tracing)\n", *traceOut)
	}
	if reg != nil {
		fmt.Println("=== metrics ===")
		if _, err := reg.WriteTo(os.Stdout); err != nil {
			fail("metrics: %v", err)
		}
	}
}
