package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"ambit"
)

// libEnv is the lib-* workloads' System with one tenant's bitmap index and
// the bit-sliced columns of the range predicate installed.
type libEnv struct {
	sys           *ambit.System
	days          [days]*ambit.Bitvector
	every, weekly *ambit.Bitvector
	out           *ambit.Bitvector
	less          *ambit.Func
	srcs          [2][]*ambit.Bitvector // columns then constant k[j]'s slices
	buf           []uint64
	// steps holds the latencies (ms) of the last query's steps: recording
	// the batch, Batch.Run, and the popcount plus Func.Run.
	steps []float64
}

// setupLib builds the System (the way ambitd does when telemetry is set),
// installs the inputs over the costed channel and compiles the predicate.
func setupLib(in *libInputs, telemetry bool) (*libEnv, error) {
	var sys *ambit.System
	var err error
	if telemetry {
		sys, err = newAmbitdSystem()
	} else {
		sys, err = ambit.New()
	}
	if err != nil {
		return nil, err
	}
	e := &libEnv{sys: sys, buf: make([]uint64, vecWords)}
	if err := e.install(in); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *libEnv) install(in *libInputs) error {
	var err error
	alloc := func(data []uint64) *ambit.Bitvector {
		if err != nil {
			return nil
		}
		var v *ambit.Bitvector
		if v, err = e.sys.Alloc(vecBits); err == nil && data != nil {
			err = v.Write(data)
		}
		return v
	}
	for d := range e.days {
		e.days[d] = alloc(in.days[d])
	}
	e.every, e.weekly, e.out = alloc(in.every), alloc(nil), alloc(nil)
	var cols []*ambit.Bitvector
	for _, c := range in.cols {
		cols = append(cols, alloc(c))
	}
	for j, k := range in.k {
		e.srcs[j] = append([]*ambit.Bitvector(nil), cols...)
		for i := 0; i < lessWidth; i++ {
			v := alloc(nil)
			if err == nil {
				err = e.sys.Fill(v, k>>uint(i)&1 == 1)
			}
			e.srcs[j] = append(e.srcs[j], v)
		}
	}
	if err != nil {
		return fmt.Errorf("lib install: %w", err)
	}
	if e.less, err = e.sys.CompileLess(lessWidth); err != nil {
		return err
	}
	return nil
}

func (e *libEnv) close() { _ = e.sys.Close() }

// query runs lib query i: the bitmap-index program recorded into one Batch
// and run fused, then the range predicate col < k[i mod 2] via Func.Run.
func (e *libEnv) query(i int, sc *scope) (int64, error) {
	e.steps = e.steps[:0]
	mark := time.Now()
	step := func() {
		now := time.Now()
		e.steps = append(e.steps, ms(now.Sub(mark)))
		mark = now
	}
	var b *ambit.Batch
	var pc *ambit.PopcountResult
	err := sc.do("Batch record", "ambit", func(*scope) error {
		b = e.sys.NewBatch()
		if err := b.Copy(e.weekly, e.days[0]); err != nil {
			return err
		}
		for d := 1; d < days; d++ {
			if err := b.Or(e.weekly, e.weekly, e.days[d]); err != nil {
				return err
			}
		}
		if err := b.And(e.weekly, e.weekly, e.every); err != nil {
			return err
		}
		var err error
		pc, err = b.Popcount(e.weekly)
		return err
	})
	if err != nil {
		return 0, err
	}
	step()
	if err := sc.do("Batch.Run", "ambit", func(*scope) error { _, err := b.Run(); return err }); err != nil {
		return 0, err
	}
	step()
	n, err := pc.Value()
	if err != nil {
		return 0, err
	}
	err = sc.do("Func.Run", "ambit", func(*scope) error { return e.less.Run(e.out, e.srcs[i%2]...) })
	step()
	return n, err
}

// check compares query i's answers with the host model; the predicate's
// output is read through the backdoor so checking leaves Stats untouched.
func (e *libEnv) check(o *oracle, in *libInputs, i int, n int64) bool {
	okCount := o.count(fmt.Sprintf("lib query %d popcount", i), n, in.count)
	if _, err := e.out.ReadInto(e.buf, ambit.Backdoor()); err != nil {
		return o.mismatch("lib query %d: reading predicate output: %v", i, err)
	}
	return o.words(fmt.Sprintf("lib query %d range predicate", i), e.buf, in.lessWant[i%2]) && okCount
}

// simSnap is a System's simulated totals at one moment.
type simSnap struct {
	st   ambit.Stats
	nj   float64
	opNS float64 // sum of the latency histogram over device operations
}

func snap(sys *ambit.System) simSnap {
	s := simSnap{st: sys.Stats(), nj: sys.EnergyNJ()}
	if reg := sys.Metrics(); reg != nil {
		for _, op := range reg.Ops() {
			if h, ok := reg.LatencyNS(op); ok && !strings.HasPrefix(op, "svc.") {
				s.opNS += h.Sum
			}
		}
	}
	return s
}

// simPerQuery sets the simulated per-query metrics from the totals before
// and after n queries.  They are exact for a single caller.
func simPerQuery(m metrics, a, b simSnap, n int) {
	q := float64(n)
	m.set("sim_ns_per_query", (b.st.ElapsedNS-a.st.ElapsedNS)/q, "sim_ns")
	m.set("sim_nj_per_query", (b.nj-a.nj)/q, "nJ")
	m.set("dram.row_ops_per_query", float64(b.st.RowOps-a.st.RowOps)/q, "count")
	m.set("dram.copies_per_query", float64(b.st.Copies-a.st.Copies)/q, "count")
	m.set("dram.channel_bytes_per_query", float64(b.st.ChannelBytes-a.st.ChannelBytes)/q, "B")
	var busy float64
	for i := range b.st.BankBusyNS {
		busy += b.st.BankBusyNS[i] - a.st.BankBusyNS[i]
	}
	util := 0.0
	if el := b.st.ElapsedNS - a.st.ElapsedNS; el > 0 {
		util = busy / (el * float64(len(b.st.BankBusyNS)))
	}
	m.set("exec.mean_bank_util", util, "ratio")
	m.set("dram.op_sim_ns_sum", (b.opNS-a.opNS)/q, "sim_ns")
}

// setupLibReps runs set-up reps times, keeping the last environment.
func setupLibReps(in *libInputs, telemetry bool, reps int) (*libEnv, []float64, error) {
	var env *libEnv
	var setups []float64
	for k := 0; k < reps; k++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		start := time.Now()
		e, err := setupLib(in, telemetry)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		env = e
	}
	return env, setups, nil
}

// libLoad sizes a library run from --seconds: a run makes this many queries
// per second of --seconds, so every run of a given length does the same
// work.  The rates are what one caller averages over a 30 s run on a 2-vCPU
// host; lib-telemetry's falls as the run goes on, because every query on a
// telemetry-enabled System costs more than the one before.
var libLoad = map[string]float64{"lib-batch": 100, "lib-telemetry": 17}

// runLib is the end-to-end run of a library workload: one caller, closed
// loop, in measurement blocks like a serving run's.  As in runSvc, the
// latencies are read at the middle of the run (a System with telemetry slows
// down with every query): query_p50_ms is the typical query there, the sum
// of its steps' medians (typicalMS), and qps the single caller's rate at
// that query time, 1000 / query_p50_ms.  The direct median and the windowed
// tail of whole queries and the measured rate of each block are kept in the
// report.
func runLib(cfg config, o *oracle, tl *tally, m metrics, rep *report) error {
	in := newLibInputs(cfg.seed)
	env, setups, err := setupLibReps(in, cfg.workload == "lib-telemetry", cfg.setupReps)
	if err != nil {
		return err
	}
	defer env.close()
	const warm = 3
	for i := 0; i < warm; i++ {
		n, err := env.query(i, nil)
		tl.add(err, err == nil && env.check(o, in, i, n))
	}
	pid := os.Getpid()
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	sim0 := snap(env.sys)
	blocks := max(1, int((cfg.run+blockLen/2)/blockLen))
	perBlock := max(1, int(libLoad[cfg.workload]*cfg.run.Seconds()/float64(blocks)+0.5))
	var all loopStats
	var qpss []float64
	i := warm
	for b := 0; b < blocks; b++ {
		start := time.Now()
		for k := 0; k < perBlock; k++ {
			begin := time.Now()
			n, err := env.query(i, nil)
			all.add(float64(i), ms(time.Since(begin)), env.steps...)
			tl.add(err, err == nil && env.check(o, in, i, n))
			i++
		}
		qpss = append(qpss, float64(perBlock)/time.Since(start).Seconds())
	}
	sim1 := snap(env.sys)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	peak, err := procPeakMiB(pid)
	if err != nil {
		return err
	}
	mid := float64(warm) + float64(len(all.lat)-1)/2
	atMidMS, slope := atMid(all.lat, mid)
	p50, steps := typicalMS(all.steps, mid)
	tailMS, pct, windows := windowedTail(atMidMS)
	m.set("setup_s", median(setups), "s")
	m.set("qps", 1000/p50, "1/s")
	m.set("query_p50_ms", p50, "ms")
	m.set("cpu_ms_per_query", ms(cpu1-cpu0)/float64(len(all.lat)), "ms")
	m.set("rss_mb", peak, "MiB")
	sim := metrics{}
	simPerQuery(sim, sim0, sim1, len(all.lat))
	rep.Notes["simulated"] = sim
	rep.Notes["setup_runs_s"] = setups
	rep.Notes["blocks"] = blocks
	rep.Notes["block_qps"] = qpss
	rep.Notes["step_p50_ms"] = steps
	rep.Notes["query_median_ms"] = median(atMidMS)
	rep.Notes["query_slope_ms_per_query"] = slope
	rep.Notes["query_tail_ms"] = tailMS
	rep.Notes["tail_percentile"] = pct
	rep.Notes["tail_windows"] = windows
	rep.Notes["tail_samples"] = len(all.lat)
	rep.Notes["latency_ms"] = spread(latencies(all.lat))
	return nil
}
