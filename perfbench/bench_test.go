package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// Self-tests of the benchmark: a short run of every workload, end to end and
// traced.  They build cmd/ambitd from the enclosing repository.

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var ambitdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	ambitdBin = filepath.Join(dir, "ambitd")
	cmd := exec.Command("go", "build", "-o", ambitdBin, "ambit/cmd/ambitd")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		panic("building ambitd: " + err.Error())
	}
	code := m.Run()
	stopChildren()
	os.RemoveAll(dir)
	os.Exit(code)
}

// shortRun runs one workload briefly with a single set-up.
func shortRun(t *testing.T, workload string, trace, corrupt bool) (result, report) {
	t.Helper()
	cfg := config{
		workload: workload, seed: 7, run: 1500 * time.Millisecond, trace: trace,
		ambitd: ambitdBin, outDir: t.TempDir(), setupReps: 1, corrupt: corrupt,
	}
	res, rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res, rep
}

func TestEveryWorkloadReportsItsMetrics(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			res, _ := shortRun(t, w.Name, trace, false)
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, sm := range want {
				got, ok := res.Metrics[sm.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, sm.Name)
				case got.Unit != sm.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, sm.Name, got.Unit, sm.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			if trace && res.Metrics["error_frac"].Value != 0 {
				t.Errorf("%s: error_frac = %v", w.Name, res.Metrics["error_frac"].Value)
			}
		}
	}
}

// simulatedMetrics are the exact counts a host-speed change must leave
// identical.
var simulatedMetrics = []string{
	"sim_ns_per_query", "sim_nj_per_query", "dram.row_ops_per_query", "dram.copies_per_query",
	"dram.channel_bytes_per_query", "exec.mean_bank_util", "dram.op_sim_ns_sum",
}

func TestSimulatedCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		a, _ := shortRun(t, w, true, false)
		b, _ := shortRun(t, w, true, false)
		for _, name := range simulatedMetrics {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s differs between runs: %v vs %v", w, name, a.Metrics[name], b.Metrics[name])
			}
		}
	}
	for _, w := range []string{"lib-batch", "lib-telemetry"} {
		_, a := shortRun(t, w, false, false)
		_, b := shortRun(t, w, false, false)
		ja, _ := json.Marshal(a.Notes["simulated"])
		jb, _ := json.Marshal(b.Notes["simulated"])
		if string(ja) != string(jb) {
			t.Errorf("%s: end-to-end simulated totals differ: %s vs %s", w, ja, jb)
		}
	}
}

// TestPlantedWrongAnswerFails corrupts one expected answer inside the
// oracle; the program is untouched, so the run must report a wrong answer.
func TestPlantedWrongAnswerFails(t *testing.T) {
	for _, w := range workloads {
		res, rep := shortRun(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: planted wrong answer not caught: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
		if rep.Notes["first_mismatch"] == nil {
			t.Errorf("%s: no mismatch reported", w)
		}
	}
}

// TestTypicalAtMid checks that a query's time is read at the middle of a
// ramp and that stalls in a minority of queries do not move it.
func TestTypicalAtMid(t *testing.T) {
	var fast, slow []sample
	for x := 1; x <= 101; x++ {
		fast = append(fast, sample{float64(x), 1 + 0.01*float64(x)})
		ms := 10 + 0.5*float64(x)
		if x%5 == 0 {
			ms += 100 // a stall of the host
		}
		slow = append(slow, sample{float64(x), ms})
	}
	got, parts := typicalMS([][]sample{fast, slow}, 51)
	if want := 1.51 + 35.5; math.Abs(got-want) > 1e-9 || len(parts) != 2 {
		t.Fatalf("typicalMS = %v %v, want %v over 2 steps", got, parts, want)
	}
}

// TestLessThanModel checks the host model of the range predicate against
// lane-by-lane integer comparison.
func TestLessThanModel(t *testing.T) {
	const width = 3
	cols := make([][]uint64, width)
	for i := range cols {
		cols[i] = []uint64{0}
	}
	// Lane v holds the value v (v < 8).
	for v := 0; v < 1<<width; v++ {
		for i := 0; i < width; i++ {
			if v>>i&1 == 1 {
				cols[i][0] |= 1 << uint(v)
			}
		}
	}
	for k := uint64(0); k < 1<<width; k++ {
		got := lessThan(cols, k)[0]
		for v := uint64(0); v < 1<<width; v++ {
			if want := v < k; (got>>v&1 == 1) != want {
				t.Fatalf("lane %d < %d: model says %v", v, k, !want)
			}
		}
	}
}
