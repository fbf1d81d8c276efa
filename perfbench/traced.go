package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ambit/internal/controller"
	"ambit/internal/dram"
)

// Entry points of the serving replay, outermost first, and the modules
// that own their spans.
const (
	modAmbitd  = "cmd/ambitd"
	modService = "internal/service"
	modAmbit   = "ambit"
	modCtrl    = "internal/controller"
	modBench   = "perfbench"
)

// kernelReplay replays a query's bulk operations straight to
// controller.ExecuteOpRowsFused on a standalone device laid out like a
// 128-row vector of a fresh System (row r in bank r mod 8, subarray r div 8),
// one fused dispatch per bank with banks spread over GOMAXPROCS goroutines
// as internal/exec spreads them.
type kernelReplay struct {
	ctrl  *controller.Controller
	banks [][]controller.RowTrain
}

func newKernelReplay() (*kernelReplay, error) {
	dev, err := dram.NewDevice(dram.DefaultConfig())
	if err != nil {
		return nil, err
	}
	g := dev.Geometry()
	k := &kernelReplay{ctrl: controller.New(dev), banks: make([][]controller.RowTrain, g.Banks)}
	for r := 0; r < vecRows; r++ {
		b := r % g.Banks
		k.banks[b] = append(k.banks[b], controller.RowTrain{Sub: r / g.Banks, DK: dram.D(2), DI: dram.D(0), DJ: dram.D(1)})
	}
	return k, nil
}

func (k *kernelReplay) run(op controller.Op) error {
	workers := runtime.GOMAXPROCS(0)
	var rejected atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := w; b < len(k.banks); b += workers {
				if _, ok := k.ctrl.ExecuteOpRowsFused(op, b, k.banks[b]); !ok {
					rejected.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	if rejected.Load() {
		return fmt.Errorf("controller rejected the fused %v dispatch", op)
	}
	return nil
}

// kernel replays one bulk operation, named as on the wire, as a child span
// of qs; a copy is a RowClone, which has no fused kernel.
func (k *kernelReplay) kernel(qs *scope, name string) error {
	if name == "copy" {
		return nil
	}
	op, err := controller.ParseOp(name)
	if err != nil {
		return err
	}
	return qs.do(modCtrl+":fused "+name, modCtrl, func(*scope) error { return k.run(op) })
}

// triple is the three entry points a serving request is replayed at.
type triple struct {
	srv    *server
	ip     *inproc
	lib    *libEndpoint
	closed bool
}

func newTriple(bin string) (*triple, error) {
	srv, err := startServer(bin)
	if err != nil {
		return nil, err
	}
	ip, err := newInproc()
	if err != nil {
		srv.stop()
		return nil, err
	}
	sys, err := newAmbitdSystem()
	if err != nil {
		srv.stop()
		ip.close()
		return nil, err
	}
	return &triple{srv: srv, ip: ip, lib: newLibEndpoint(sys)}, nil
}

func (x *triple) close() {
	if x.closed {
		return
	}
	x.closed = true
	x.srv.stop()
	x.ip.close()
	_ = x.lib.sys.Close()
}

// simQueries is how many queries the simulated per-query counts are taken
// over: the first ones of each replay, on one caller, so they repeat exactly.
const simQueries = 4

// replayStats is what one traced replay measured.
type replayStats struct {
	spans []span
	// plain and traced are the primary entry's query times (ms) without
	// and with spans, for the tracing overhead.
	plain, traced []float64
	sim           metrics
	rows          []layerRow
	total         float64 // ms per query the rows divide
	full          int     // queries replayed at every entry point
}

// replaySvc replays w's queries at the three entry points for about dur.
// Every other query is replayed at each entry in turn, request by request,
// together with its bulk kernels; the rest alternate between traced and
// untraced queries at the loopback entry alone.
func (x *triple) replaySvc(w *svcWork, dur time.Duration, tr *tracer, o *oracle, tl *tally, kr *kernelReplay) (*replayStats, int, time.Duration, error) {
	runs := [3]*svcRun{
		{w: w, e: clientEndpoint{x.srv.client}, o: o, t: tl},
		{w: w, e: x.ip.endpoint(), o: o, t: tl},
		{w: w, e: x.lib, o: o, t: tl},
	}
	for _, r := range runs {
		for t := 0; t < tenants; t++ {
			if err := w.install(r.e, t); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	mark := tr.mark()
	sim0 := snap(x.ip.sys)
	cpu0, err := x.srv.cpu()
	if err != nil {
		return nil, 0, 0, err
	}
	st := &replayStats{sim: metrics{}}
	var sim1 simSnap
	loopReqs := 0
	deadline := time.Now().Add(dur)
	for j := 0; j < 8 || time.Now().Before(deadline); j++ {
		t := (j / 4) % tenants
		switch j % 4 {
		case 1, 3:
			var qs *scope
			if j%4 == 1 {
				qs = tr.query()
			}
			begin := time.Now()
			var i int
			var a answer
			err := qs.do("query "+w.name, modBench, func(qs *scope) error {
				var err error
				i, a, err = runs[0].query(t, qs, modAmbitd)
				return err
			})
			took := ms(time.Since(begin))
			if qs != nil {
				st.traced = append(st.traced, took)
			} else {
				st.plain = append(st.plain, took)
			}
			runs[0].finish(t, i, &a, err)
			loopReqs += len(w.requests(t, i))
		default:
			x.fullQuery(w, runs, t, tr.query(), kr)
			st.full++
			loopReqs += len(w.requests(t, 0))
			if st.full == simQueries {
				sim1 = snap(x.ip.sys)
			}
		}
	}
	cpu1, err := x.srv.cpu()
	if err != nil {
		return nil, 0, 0, err
	}
	simPerQuery(st.sim, sim0, sim1, simQueries)
	st.spans = tr.since(mark)
	st.attributeSvc()
	return st, loopReqs, cpu1 - cpu0, nil
}

// fullQuery replays tenant t's next query at every entry point, request by
// request, and checks each entry's answer.
func (x *triple) fullQuery(w *svcWork, runs [3]*svcRun, t int, q *scope, kr *kernelReplay) {
	var is [3]int
	var as [3]answer
	var errs [3]error
	var reqs [3][]request
	for e, r := range runs {
		is[e] = r.next[t]
		r.next[t]++
		reqs[e] = w.requests(t, is[e])
	}
	ns := nsName(w.name, t)
	mods := [3]string{modAmbitd, modService, modAmbit}
	err := q.do("query "+w.name, modBench, func(qs *scope) error {
		for k := range reqs[0] {
			for e, r := range runs {
				if errs[e] != nil {
					continue
				}
				rq := reqs[e][k]
				errs[e] = qs.do(mods[e]+":"+rq.route, mods[e], func(s *scope) error {
					err := retry(&r.retries, func() error { return do(r.e, ns, rq, &as[e]) })
					if e == 1 {
						s.record("ServeHTTP:"+rq.route, modService, x.ip.start, x.ip.end)
					}
					return err
				})
			}
			if rq := reqs[0][k]; rq.route == "op" {
				if err := kr.kernel(qs, rq.op); err != nil {
					return err
				}
			}
		}
		return nil
	})
	for e, r := range runs {
		if errs[e] == nil {
			errs[e] = err
		}
		r.finish(t, is[e], &as[e], errs[e])
	}
}

// attributeSvc divides the loopback query time by difference between the
// entry points: loopback minus handler is HTTP and the process boundary,
// handler minus library is the service layer, library minus the bulk
// kernels is the ambit System around them.
func (st *replayStats) attributeSvc() {
	full := map[int64]bool{}
	for _, s := range st.spans {
		if strings.HasPrefix(s.Name, "ServeHTTP:") {
			full[s.Query] = true
		}
	}
	var loop, handler, lib, kernel float64
	for _, s := range st.spans {
		if !full[s.Query] {
			continue
		}
		d := ms(s.dur())
		switch {
		case s.Module == modAmbitd:
			loop += d
		case strings.HasPrefix(s.Name, "ServeHTTP:"):
			handler += d
		case s.Module == modAmbit:
			lib += d
		case s.Module == modCtrl:
			kernel += d
		}
	}
	n := float64(len(full))
	st.total = loop / n
	st.rows = []layerRow{
		{"cmd/ambitd + net/http over loopback (client included)", (loop - handler) / n},
		{"internal/service (handlers, admission, JSON, telemetry)", (handler - lib) / n},
		{"ambit (System ops, internal/exec, host I/O)", (lib - kernel) / n},
		{"internal/controller (bulk kernels, replayed on the fused path)", kernel / n},
	}
}

// replayLib replays the lib query on an untraced System and on one built
// like ambitd's, for about dur.  Every other query runs on both, the
// primary's bulk kernels replayed beside them; the rest alternate between
// traced and untraced queries on the primary alone.
func replayLib(in *libInputs, teleIsPrimary bool, dur time.Duration, tr *tracer, o *oracle, tl *tally, kr *kernelReplay) (*replayStats, map[string][]float64, error) {
	plain, err := setupLib(in, false)
	if err != nil {
		return nil, nil, err
	}
	defer plain.close()
	tele, err := setupLib(in, true)
	if err != nil {
		return nil, nil, err
	}
	defer tele.close()
	primary := plain
	if teleIsPrimary {
		primary = tele
	}
	next := map[*libEnv]int{}
	runOne := func(env *libEnv, qs *scope, name string) float64 {
		i := next[env]
		next[env]++
		begin := time.Now()
		var n int64
		err := qs.do(name, modAmbit, func(s *scope) error {
			var err error
			n, err = env.query(i, s)
			return err
		})
		took := ms(time.Since(begin))
		tl.add(err, err == nil && env.check(o, in, i, n))
		return took
	}
	mark := tr.mark()
	sim0, tele0 := snap(primary.sys), snap(tele.sys)
	var sim1, tele1 simSnap
	st := &replayStats{sim: metrics{}}
	times := map[string][]float64{}
	deadline := time.Now().Add(dur)
	for j := 0; j < 8 || time.Now().Before(deadline); j++ {
		switch j % 4 {
		case 1:
			q := tr.query()
			st.traced = append(st.traced, runOne(primary, q, "lib query"))
		case 3:
			st.plain = append(st.plain, runOne(primary, nil, "lib query"))
		default:
			q := tr.query()
			err := q.do("query lib", modBench, func(qs *scope) error {
				envs := []*libEnv{plain, tele}
				if j%8 == 2 {
					envs[0], envs[1] = tele, plain
				}
				for _, env := range envs {
					name := "lib query (plain System)"
					if env == tele {
						name = "lib query (ambitd-style System)"
					}
					times[name] = append(times[name], runOne(env, qs, name))
				}
				for d := 1; d < days; d++ {
					if err := kr.kernel(qs, "or"); err != nil {
						return err
					}
				}
				return kr.kernel(qs, "and")
			})
			if err != nil {
				return nil, nil, err
			}
			st.full++
		}
		// Each System runs at most one query per iteration, so its count
		// passes simQueries exactly once.
		if next[primary] == simQueries {
			sim1 = snap(primary.sys)
		}
		if next[tele] == simQueries {
			tele1 = snap(tele.sys)
		}
	}
	simPerQuery(st.sim, sim0, sim1, simQueries)
	// The untraced System keeps no latency histogram; the ambitd-style one
	// runs the same queries.
	st.sim.set("dram.op_sim_ns_sum", (tele1.opNS-tele0.opNS)/simQueries, "sim_ns")
	st.spans = tr.since(mark)
	st.attributeLib(teleIsPrimary)
	return st, times, nil
}

// attributeLib divides the lib query time: the bulk kernels, the rest of
// Batch.Run, Func.Run and recording on the plain System, and what the
// ambitd-style System adds on top (internal/obs), which only lib-telemetry
// pays.
func (st *replayStats) attributeLib(teleIsPrimary bool) {
	var kernel, run, fn, rec, plainQ, teleQ float64
	parent := map[int64]string{}
	for _, s := range st.spans {
		parent[s.ID] = s.Name
	}
	for _, s := range st.spans {
		d := ms(s.dur())
		switch {
		case s.Name == "lib query (plain System)":
			plainQ += d
		case s.Name == "lib query (ambitd-style System)":
			teleQ += d
		case s.Module == modCtrl:
			kernel += d
		case parent[s.Parent] != "lib query (plain System)":
		case s.Name == "Batch.Run":
			run += d
		case s.Name == "Func.Run":
			fn += d
		case s.Name == "Batch record":
			rec += d
		}
	}
	n := float64(st.full)
	obs := 0.0
	st.total = plainQ / n
	if teleIsPrimary {
		obs = (teleQ - plainQ) / n
		st.total = teleQ / n
	}
	st.rows = []layerRow{
		{"internal/controller (fused kernels)", kernel / n},
		{"ambit Batch.Run (internal/exec, program, popcount)", (run - kernel) / n},
		{"ambit Func.Run (compiled MAJ/NOT trains)", fn / n},
		{"ambit Batch recording", rec / n},
		{"internal/obs (telemetry sink on the traced path)", obs},
	}
}

// spanTimes returns the durations (ms) of spans with the given name.
func spanTimes(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// runTraced is the traced run: every serving stream replayed at the three
// entry points, the lib query on both System configurations, the layer
// probes and a short open-loop phase, reporting per-layer metrics.  The
// workload under test gets the longest replay and its spans feed the
// attribution table.
func runTraced(cfg config, o *oracle, tl *tally, m metrics, rep *report) error {
	share := func(pct int64) time.Duration { return cfg.run * time.Duration(pct) / 100 }
	replayDur := func(name string) time.Duration {
		if name == cfg.workload || (name == "lib" && !cfg.svc()) {
			return share(30)
		}
		return share(12)
	}
	tr := newTracer()
	kr, err := newKernelReplay()
	if err != nil {
		return err
	}
	x, err := newTriple(cfg.ambitd)
	if err != nil {
		return err
	}
	defer x.close()
	replays := map[string]*replayStats{}
	var loopReqs int
	var loopCPU time.Duration
	// The replays share the in-process System; svc-query's runs first, so
	// the energy total its simulated counts are taken from starts at the
	// same value in every run and rounds the same way.
	for _, name := range []string{"svc-query", "svc-ingest"} {
		st, reqs, cpu, err := x.replaySvc(newSvcWork(name, cfg.seed), replayDur(name), tr, o, tl, kr)
		if err != nil {
			return fmt.Errorf("%s replay: %w", name, err)
		}
		replays[name] = st
		loopReqs += reqs
		loopCPU += cpu
	}
	in := newLibInputs(cfg.seed)
	libSt, libTimes, err := replayLib(in, cfg.workload == "lib-telemetry", replayDur("lib"), tr, o, tl, kr)
	if err != nil {
		return fmt.Errorf("lib replay: %w", err)
	}
	replays["lib"] = libSt
	x.close()

	if err := runProbes(m, share(25), in); err != nil {
		return err
	}
	if err := loadPhase(cfg, newSvcWork("svc-query", cfg.seed), share(15), o, tl, m); err != nil {
		return err
	}

	// Serving layers, from both streams' spans.
	var spans []span
	for _, name := range []string{"svc-query", "svc-ingest", "lib"} {
		spans = append(spans, replays[name].spans...)
	}
	route := func(prefix, r string) []float64 { return spanTimes(spans, prefix+":"+r) }
	opLoop, opHandler, opLib := route(modAmbitd, "op"), route("ServeHTTP", "op"), route(modAmbit, "op")
	opTail, _ := tail(opLoop)
	writeTail, _ := tail(route(modAmbitd, "data_write"))
	m.set("ambitd.op_p50_ms", median(opLoop), "ms")
	m.set("ambitd.op_tail_ms", opTail, "ms")
	m.set("ambitd.popcount_p50_ms", median(route(modAmbitd, "popcount")), "ms")
	m.set("ambitd.data_write_p50_ms", median(route(modAmbitd, "data_write")), "ms")
	m.set("ambitd.data_write_tail_ms", writeTail, "ms")
	m.set("ambitd.data_read_p50_ms", median(route(modAmbitd, "data_read")), "ms")
	m.set("ambitd.cpu_ms_per_req", ms(loopCPU)/float64(loopReqs), "ms")
	for _, r := range []string{"op", "popcount", "data_write", "data_read"} {
		m.set("service."+r+"_ns", 1e6*median(route("ServeHTTP", r)), "ns")
	}
	m.set("service.http_overhead_frac", 1-median(opHandler)/median(opLoop), "ratio")
	m.set("ambit.service_overhead_frac", 1-median(opLib)/median(opHandler), "ratio")

	// Library layers, from the lib replay.
	m.set("ambit.batch_run_ms", median(spanTimesUnder(libSt.spans, "Batch.Run", "lib query (plain System)")), "ms")
	m.set("ambit.func_run_ns_per_row", 1e6*median(spanTimesUnder(libSt.spans, "Func.Run", "lib query (plain System)"))/vecRows, "ns")
	m.set("obs.overhead_frac", median(libTimes["lib query (ambitd-style System)"])/median(libTimes["lib query (plain System)"])-1, "ratio")

	own := replays["lib"]
	if cfg.svc() {
		own = replays[cfg.workload]
	}
	for k, v := range own.sim {
		m[k] = v
	}
	m.set("trace.overhead_frac", median(own.traced)/median(own.plain)-1, "ratio")
	rep.Notes["traced_query_ms"] = median(own.traced)
	rep.Notes["untraced_query_ms"] = median(own.plain)
	rep.Notes["trace_overhead_samples"] = len(own.plain)

	title := fmt.Sprintf("%s seed %d: attribution of %d replayed queries", cfg.workload, cfg.seed, own.full)
	table, owner := layerTable(title, own.total, own.rows, selfByName(own.spans))
	fmt.Fprint(os.Stderr, table)
	rep.Notes["layer_owner"] = owner
	rep.Notes["layer_table"] = strings.Split(strings.TrimSpace(table), "\n")
	rep.Notes["spans"] = len(tr.spans)
	if cfg.outDir != "" {
		tracePath := filepath.Join(cfg.outDir, runName(cfg, "trace", ".json"))
		if err := writeFile(tracePath, func(w io.Writer) error { return writeChromeTrace(w, tr.spans) }); err != nil {
			return err
		}
		rep.Notes["span_file"] = tracePath
		if err := os.WriteFile(filepath.Join(cfg.outDir, runName(cfg, "layers", ".txt")), []byte(table), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// spanTimesUnder returns the durations (ms) of spans named name whose parent
// is named parent.
func spanTimesUnder(spans []span, name, parent string) []float64 {
	names := map[int64]string{}
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name && names[s.Parent] == parent {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// loadPhase runs w open loop against a fresh ambitd for dur and reads the
// generator's lateness and retries and the server's own counters.
func loadPhase(cfg config, w *svcWork, dur time.Duration, o *oracle, tl *tally, m metrics) error {
	srv, _, err := setupServer(cfg.ambitd, w)
	if err != nil {
		return err
	}
	defer srv.stop()
	r := &svcRun{w: w, e: clientEndpoint{srv.client}, o: o, t: tl}
	r.warmup(1)
	before, err := srv.client.MetricSamples()
	if err != nil {
		return err
	}
	rate := svcLoad[w.name].open
	open := r.openLoop(perTenant(rate, dur), rate, cfg.seed)
	after, err := srv.client.MetricSamples()
	if err != nil {
		return err
	}
	stats, err := srv.client.ServiceStats()
	if err != nil {
		return err
	}
	sat, _ := stats["bank_saturation"].(float64)
	m.set("loadgen.late_p99_ms", quantile(open.late, 0.99), "ms")
	m.set("loadgen.retries_429", float64(r.retries.Load()), "count")
	m.set("service.rejected", sumSeries(after, "ambit_svc_rejected_")-sumSeries(before, "ambit_svc_rejected_"), "count")
	m.set("service.bank_saturation", sat, "ratio")
	return nil
}

// sumSeries sums the per-tenant series of the metric families starting with
// prefix.
func sumSeries(samples map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range samples {
		if strings.HasPrefix(k, prefix) && strings.Contains(k, `{ns=`) {
			sum += v
		}
	}
	return sum
}
