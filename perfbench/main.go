// Command perfbench is the repository benchmark.  It runs one of three
// seeded workloads and prints, as the last line of standard output, one JSON
// result with the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1):
//
//   - svc-query:     cmd/ambitd over loopback, bitmap-index queries (copy,
//     6x or, and, popcount) of 8,388,608-bit vectors for 2 tenants;
//   - lib-batch:     the ambit package in process, the bitmap-index query as
//     one Batch.Run plus a compiled CompileLess predicate via Func.Run;
//   - lib-telemetry: lib-batch on a System built the way ambitd builds its
//     own (WithTelemetryAddr, no /trace subscriber).
//
// Every answer is checked against a host-side bit model (oracle.go).  The
// traced run (-trace 1) replays the svc-query stream and the svc-ingest
// stream (rounds of a 1 MiB day upload, an or into a two-day union, a full
// read-back and a popcount) request by request at the loopback server, the
// in-process handler and the library, records spans around those calls,
// writes them as Chrome-trace JSON and attributes query time to modules by
// difference (traced.go).  Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload svc-query --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads are the benchmark's workloads.  svc-ingest, whose 1 MiB request
// bodies make its timings swing with memory contention from other tenants of
// a shared host, is only replayed in the traced run.
var workloads = []string{"svc-query", "lib-batch", "lib-telemetry"}

type config struct {
	workload string
	seed     int64
	run      time.Duration // measured time of one run
	trace    bool
	ambitd   string // ambitd binary (svc workloads and traced runs)
	outDir   string // span files and reports; empty writes none
	// setupReps is how many times set-up runs (0 means 9); setup_s is
	// their median.
	setupReps int
	// corrupt plants one wrong expected answer in the oracle (self-test);
	// the program under test is never touched.
	corrupt bool
}

func (c config) svc() bool { return c.workload == "svc-query" }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is the context of one run, printed before the result line and
// written to the output directory.
type report struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Notes      map[string]any `json:"notes"`
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "svc-query, lib-batch or lib-telemetry")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&cfg.ambitd, "ambitd", "", "path to the ambitd binary")
	flag.StringVar(&cfg.outDir, "out", "", "directory for span files and reports")
	flag.Parse()
	cfg.run = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if err := validate(cfg, trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	stopOnSignal()
	res, rep, err := run(cfg)
	stopChildren()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := writeReport(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	repLine, _ := json.Marshal(rep)
	fmt.Printf("report %s\n", repLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func validate(cfg config, trace int) error {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	switch {
	case !known:
		return fmt.Errorf("-workload must be one of %v, got %q", workloads, cfg.workload)
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case cfg.run <= 0:
		return fmt.Errorf("-seconds must be positive")
	case (cfg.svc() || cfg.trace) && cfg.ambitd == "":
		return fmt.Errorf("-ambitd is required for %s", cfg.workload)
	}
	return nil
}

// run executes one configured pass and assembles its result.
func run(cfg config) (result, report, error) {
	if cfg.setupReps <= 0 {
		cfg.setupReps = 9
	}
	rep := report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.run.Seconds(), Trace: cfg.trace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Notes: map[string]any{},
	}
	o := &oracle{corrupt: cfg.corrupt}
	t := &tally{}
	m := metrics{}
	start := time.Now()
	steal0, err := hostSteal()
	if err != nil {
		return result{}, rep, err
	}
	switch {
	case cfg.trace:
		err = runTraced(cfg, o, t, m, &rep)
	case cfg.svc():
		err = runSvc(cfg, o, t, m, &rep)
	default:
		err = runLib(cfg, o, t, m, &rep)
	}
	if err != nil {
		return result{}, rep, err
	}
	// Time the hypervisor gave to other guests: a run that lost much of
	// the host's CPU measured its neighbours as well as the program.
	if steal1, err := hostSteal(); err == nil {
		rep.Notes["host_steal_frac"] = float64(steal1-steal0) / float64(time.Since(start)) / float64(runtime.NumCPU())
	}
	if msg := o.firstMismatch(); msg != "" {
		rep.Notes["first_mismatch"] = msg
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: %s\n", msg)
	}
	if msg := t.firstError(); msg != "" {
		rep.Notes["first_error"] = msg
		fmt.Fprintf(os.Stderr, "perfbench: failed query: %s\n", msg)
	}
	attempted, failed := t.attempted.Load(), t.failed.Load()
	if attempted == 0 {
		return result{}, rep, fmt.Errorf("no query was attempted")
	}
	if cfg.trace {
		m.set("error_frac", float64(failed)/float64(attempted), "ratio")
	}
	return result{Correct: o.wrong.Load() == 0, Attempted: attempted, Failed: failed, Metrics: m}, rep, nil
}

func writeReport(cfg config, rep report) error {
	if cfg.outDir == "" {
		return nil
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, runName(cfg, "report", ".json")), b, 0o644)
}

// runName names a per-run artifact: <kind>-<workload>-seed<n>[-traced]<ext>.
func runName(cfg config, kind, ext string) string {
	name := fmt.Sprintf("%s-%s-seed%d", kind, cfg.workload, cfg.seed)
	if cfg.trace {
		name += "-traced"
	}
	return name + ext
}
