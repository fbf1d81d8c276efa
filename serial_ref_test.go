package ambit

// Frozen serial reference.  testdata/serial_ref.json pins, per scenario, a
// sha256 of every vector's final words, the popcount and BatchReport where
// the scenario has them, the complete Stats, and a sha256 of the traced run's
// JSONL.  The fixture was recorded on a serial exclusive execution path —
// every operation's rows in ascending order on one goroutine, batches op by
// op in recording order — that no longer exists: the per-bank stream
// executor must reproduce it exactly, traced or not, at any worker count.
// The differential tests (scenario, alias matrix, batch fusion, traced
// batch, parallel trace, execution core) take their reference from here.
// Rewrite it with `go test -run TestSerialReference -update` only after an
// intentional change to results, Stats or trace emission.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"ambit/internal/dram"
)

const serialRefPath = "testdata/serial_ref.json"

// refOutcome is one scenario's observable outcome as the fixture stores it.
type refOutcome struct {
	Vectors  []string     `json:"vectors"`
	Popcount int64        `json:"popcount,omitempty"`
	Report   *BatchReport `json:"report,omitempty"`
	Stats    Stats        `json:"stats"`
	Trace    string       `json:"trace_sha256,omitempty"`
}

// refResult is what a scenario body returns besides the System's Stats.
type refResult struct {
	data   [][]uint64
	pop    int64
	report *BatchReport
}

// refScenario is one fixture entry: the System options and the workload.
type refScenario struct {
	name string
	opts func(t *testing.T) []Option
	run  func(t *testing.T, sys *System) refResult
}

// refScenarios lists every scenario the fixture pins.
func refScenarios() []refScenario {
	none := func(*testing.T) []Option { return nil }
	faulted := func(t *testing.T, sys *System) refResult { return refResult{data: faultedWorkload(t, sys)} }
	batch := func(t *testing.T, sys *System) refResult {
		out := fusedBatchProgram(t, sys)
		return refResult{data: out.data, pop: out.pop, report: &out.report}
	}
	plainFaults := FaultConfig{TRABitRate: 1e-3, TRARowRate: 2e-3, DCCBitRate: 5e-4, RowVariation: 1.3, WeakColumnFraction: 0.05, Seed: 7}
	batchFaults := FaultConfig{TRABitRate: 1e-3, TRARowRate: 2e-3, DCCBitRate: 5e-4, RowVariation: 1.3, WeakColumnFraction: 0.05, Seed: 11}
	sc := []refScenario{
		{"faulted/profile", func(t *testing.T) []Option {
			return []Option{WithFaultProfile(vendorProfile(t)), WithManyRowMaj(5)}
		}, faulted},
		{"faulted/plain", func(*testing.T) []Option {
			return []Option{WithFaultModel(plainFaults), WithManyRowMaj(3)}
		}, faulted},
		{"faulted/plain+ecc", func(*testing.T) []Option {
			return []Option{WithFaultModel(plainFaults), WithManyRowMaj(3), WithReliability(Reliability{ECC: true, MaxRetries: 4})}
		}, faulted},
		{"exec", none, func(t *testing.T, sys *System) refResult { return refResult{data: execWorkload(t, sys)} }},
		{"obs", none, func(t *testing.T, sys *System) refResult {
			obsWorkload(t, sys)
			return refResult{}
		}},
		{"batch/fused", none, batch},
		{"batch/faulted", func(*testing.T) []Option { return []Option{WithFaultModel(batchFaults)} }, batch},
		{"batch/ecc", func(*testing.T) []Option {
			return []Option{WithFaultModel(batchFaults), WithReliability(Reliability{ECC: true, MaxRetries: 4})}
		}, batch},
		{"batch/trace", func(*testing.T) []Option {
			cfg := DefaultDRAMConfig()
			cfg.Timing = dram.DDR3_1600()
			return []Option{WithDRAM(cfg), WithSplitDecoder(true)}
		}, func(t *testing.T, sys *System) refResult {
			bt, pc := recordTracedBatch(t, sys)
			if _, err := bt.Run(); err != nil {
				t.Fatal(err)
			}
			pop, err := pc.Value()
			if err != nil {
				t.Fatal(err)
			}
			return refResult{pop: pop}
		}},
		{"copy/cross-bank", none, crossBankCopyWorkload},
		{"batch/copy-cross-bank", none, crossBankBatchWorkload},
	}
	aliasFaults := FaultConfig{TRABitRate: 1e-3, TRARowRate: 2e-3, DCCBitRate: 5e-4, RowVariation: 1.3, WeakColumnFraction: 0.05, Seed: 7}
	for _, op := range aliasOps {
		for _, pat := range aliasPatterns {
			if op.unary && !pat.unaryOK {
				continue
			}
			op, pat := op, pat
			run := func(t *testing.T, sys *System) refResult { return refResult{data: aliasWorkload(t, sys, op, pat)} }
			sc = append(sc,
				refScenario{"alias/" + op.name + "/" + pat.name + "/untraced", none, run},
				refScenario{"alias/" + op.name + "/" + pat.name + "/faulted", func(*testing.T) []Option {
					return []Option{WithFaultModel(aliasFaults)}
				}, run})
		}
	}
	return sc
}

// hashWords is the fixture's digest of one vector: sha256 over its words,
// little-endian.
func hashWords(words []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runRef runs one scenario on a fresh System with the given worker bound,
// optionally traced into a JSONL sink, and returns its outcome.
func runRef(t *testing.T, sc refScenario, workers int, traced bool) refOutcome {
	t.Helper()
	opts := append(sc.opts(t), WithExecWorkers(workers))
	var buf bytes.Buffer
	var tr *Tracer
	if traced {
		tr = NewTracer(NewJSONLSink(&buf))
		opts = append(opts, WithTracer(tr))
	}
	sys, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res := sc.run(t, sys)
	out := outcomeOf(res.data, sys.Stats())
	out.Popcount, out.Report = res.pop, res.report
	if traced {
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		out.Trace = hex.EncodeToString(sum[:])
	}
	return out
}

// outcomeOf digests vector contents and Stats into a fixture outcome.
func outcomeOf(data [][]uint64, st Stats) refOutcome {
	out := refOutcome{Stats: st}
	for _, words := range data {
		out.Vectors = append(out.Vectors, hashWords(words))
	}
	return out
}

// refScenarioNamed returns the named fixture scenario.
func refScenarioNamed(t *testing.T, name string) refScenario {
	t.Helper()
	for _, sc := range refScenarios() {
		if sc.name == name {
			return sc
		}
	}
	t.Fatalf("no fixture scenario %q", name)
	return refScenario{}
}

// checkSerialRef runs the named scenario at each worker count (0 means
// GOMAXPROCS), untraced and traced, against the frozen serial outcome, which
// it returns.
func checkSerialRef(t *testing.T, name string, workers ...int) refOutcome {
	t.Helper()
	sc := refScenarioNamed(t, name)
	want := serialRef(t, name)
	for _, w := range workers {
		compareRef(t, fmt.Sprintf("workers=%d", w), runRef(t, sc, w, false), want)
		compareRef(t, fmt.Sprintf("workers=%d traced", w), runRef(t, sc, w, true), want)
	}
	return want
}

var serialRefFixture struct {
	once sync.Once
	m    map[string]refOutcome
	err  error
}

// serialRef returns the frozen outcome of the named scenario.
func serialRef(t *testing.T, name string) refOutcome {
	t.Helper()
	f := &serialRefFixture
	f.once.Do(func() {
		raw, err := os.ReadFile(serialRefPath)
		if err != nil {
			f.err = err
			return
		}
		f.err = json.Unmarshal(raw, &f.m)
	})
	if f.err != nil {
		t.Fatalf("%s: %v (run `go test -run TestSerialReference -update` to create)", serialRefPath, f.err)
	}
	want, ok := f.m[name]
	if !ok {
		t.Fatalf("%s has no scenario %q", serialRefPath, name)
	}
	return want
}

// compareRef reports every field of got that differs from want.  An untraced
// run (empty got.Trace) is not compared on the trace digest.
func compareRef(t *testing.T, label string, got, want refOutcome) {
	t.Helper()
	if !reflect.DeepEqual(got.Vectors, want.Vectors) {
		t.Errorf("%s: vector contents diverged from the serial reference", label)
	}
	if got.Popcount != want.Popcount {
		t.Errorf("%s: popcount %d, serial reference %d", label, got.Popcount, want.Popcount)
	}
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Errorf("%s: report %+v, serial reference %+v", label, got.Report, want.Report)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: stats diverged:\n got %+v\nwant %+v", label, got.Stats, want.Stats)
	}
	if got.Trace != "" && got.Trace != want.Trace {
		t.Errorf("%s: trace digest %s, serial reference %s", label, got.Trace, want.Trace)
	}
}

// writeSerialRef writes the fixture with one scenario per line, sorted by
// name, so a regenerated fixture diffs per scenario.
func writeSerialRef(t *testing.T, m map[string]refOutcome) {
	t.Helper()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("{\n")
	for i, n := range names {
		k, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		v, err := json.Marshal(m[n])
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(k)
		sb.WriteString(": ")
		sb.Write(v)
		if i < len(names)-1 {
			sb.WriteString(",")
		}
		sb.WriteString("\n")
	}
	sb.WriteString("}\n")
	if err := os.WriteFile(filepath.FromSlash(serialRefPath), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", serialRefPath)
}

// TestSerialReference runs every scenario at 1 and 4 workers, traced and
// untraced, against the frozen fixture.
func TestSerialReference(t *testing.T) {
	recorded := map[string]refOutcome{}
	for _, sc := range refScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			if *updateGolden {
				recorded[sc.name] = runRef(t, sc, 1, true)
				return
			}
			checkSerialRef(t, sc.name, 1, 4)
		})
	}
	if *updateGolden && !t.Failed() {
		writeSerialRef(t, recorded)
	}
}
