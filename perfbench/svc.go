package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ambit/internal/service/loadgen"
)

// svcLoad sizes a serving run from --seconds, in queries per second.  open is
// the fixed open-loop arrival rate: on a 2-vCPU host it is a quarter of the
// closed-loop capacity a run reports and under half of what the server has
// left at the end of a run (ambitd slows down as its simulated clock
// advances), so no block overloads it.  closed sizes the closed-loop phases.
// A run sends a fixed number of queries, so every run of a given length does
// the same work and the server is in the same state at the same point of
// every run, however fast the program.
var svcLoad = map[string]struct{ open, closed float64 }{
	"svc-query": {open: 12, closed: 30},
}

// maxRetries bounds the retries of one request turned away with 429; a
// request that exhausts them is refused and fails its query.
const maxRetries = 20

// retry runs fn, retrying 429s after the server's Retry-After.
func retry(retries *atomic.Int64, fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := fn()
		var ae *loadgen.APIError
		if err == nil || !errors.As(err, &ae) || !ae.Retryable() {
			return err
		}
		if attempt == maxRetries {
			return fmt.Errorf("refused after %d retries: %w", maxRetries, err)
		}
		retries.Add(1)
		d := ae.RetryAfter
		if d <= 0 {
			d = 10 * time.Millisecond
		}
		time.Sleep(min(d, time.Second))
	}
}

// svcRun sends one serving workload's queries at one endpoint.  Each
// tenant's queries run in order on one goroutine, which owns next[t].
type svcRun struct {
	w       *svcWork
	e       endpoint
	o       *oracle
	t       *tally
	next    [tenants]int
	retries atomic.Int64
	// started counts the timed queries begun so far, across tenants.
	started atomic.Int64
	// steps[t] holds the latencies (ms) of the requests of tenant t's
	// last query.
	steps [tenants][]float64
}

// query runs tenant t's next query and returns once its last response is
// in, before the answer is checked.
func (r *svcRun) query(t int, sc *scope, module string) (int, answer, error) {
	i := r.next[t]
	r.next[t]++
	r.steps[t] = r.steps[t][:0]
	var a answer
	ns := nsName(r.w.name, t)
	for _, rq := range r.w.requests(t, i) {
		begin := time.Now()
		err := sc.do(module+":"+rq.route, module, func(*scope) error {
			return retry(&r.retries, func() error { return do(r.e, ns, rq, &a) })
		})
		if err != nil {
			return i, a, err
		}
		r.steps[t] = append(r.steps[t], ms(time.Since(begin)))
	}
	return i, a, nil
}

// finish checks a query's answer and records its outcome.
func (r *svcRun) finish(t, i int, a *answer, err error) {
	r.t.add(err, err == nil && r.w.check(r.o, t, i, a))
}

// loopStats holds per query its latency and the latencies of its steps
// (steps[k] is step k of every query), and the generator's lateness, in ms.
type loopStats struct {
	lat     []sample
	steps   [][]sample
	late    []float64
	elapsed time.Duration
}

func (st *loopStats) add(x, lat float64, steps ...float64) {
	st.lat = append(st.lat, sample{x, lat})
	for k, d := range steps {
		if k == len(st.steps) {
			st.steps = append(st.steps, nil)
		}
		st.steps[k] = append(st.steps[k], sample{x, d})
	}
}

func (st *loopStats) merge(o loopStats) {
	st.lat = append(st.lat, o.lat...)
	for k, s := range o.steps {
		if k == len(st.steps) {
			st.steps = append(st.steps, nil)
		}
		st.steps[k] = append(st.steps[k], s...)
	}
	st.late = append(st.late, o.late...)
}

// eachTenant runs fn on one goroutine per tenant and merges their stats.
func eachTenant(fn func(t int, st *loopStats)) loopStats {
	var per [tenants]loopStats
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			fn(t, &per[t])
		}(t)
	}
	wg.Wait()
	out := loopStats{elapsed: time.Since(start)}
	for _, st := range per {
		out.merge(st)
	}
	return out
}

// openLoop sends n queries per tenant at seeded arrival times, rate per
// second in total, split evenly across tenants.  Gaps between a tenant's
// arrivals are drawn uniformly from half to one and a half times their mean,
// so the tail reflects the server rather than how a seed happens to cluster
// arrivals.  Latency runs from each query's due time, so a query that waits
// behind its tenant's previous one is charged the wait, which is the query's
// first step; lateness is how far the generator started a query after it
// could have.
func (r *svcRun) openLoop(n int, rate float64, seed int64) loopStats {
	start := time.Now()
	return eachTenant(func(t int, st *loopStats) {
		rng := rand.New(rand.NewSource(seed*7919 + int64(t)))
		mean := float64(time.Second) * tenants / rate
		due, prevEnd := start, start
		for k := 0; k < n; k++ {
			due = due.Add(time.Duration((0.5 + rng.Float64()) * mean))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			begin := time.Now()
			ready := due
			if prevEnd.After(ready) {
				ready = prevEnd
			}
			x := float64(r.started.Add(1))
			i, a, err := r.query(t, nil, "")
			end := time.Now()
			prevEnd = end
			st.add(x, ms(end.Sub(due)), append([]float64{ms(begin.Sub(due))}, r.steps[t]...)...)
			st.late = append(st.late, ms(begin.Sub(ready)))
			r.finish(t, i, &a, err)
		}
	})
}

// closedLoop sends n queries per tenant, each tenant's back to back.
func (r *svcRun) closedLoop(n int) loopStats {
	return eachTenant(func(t int, st *loopStats) {
		for k := 0; k < n; k++ {
			begin := time.Now()
			x := float64(r.started.Add(1))
			i, a, err := r.query(t, nil, "")
			st.add(x, ms(time.Since(begin)), r.steps[t]...)
			r.finish(t, i, &a, err)
		}
	})
}

// perTenant returns how many queries each tenant sends to run at rate for
// d, at least one.
func perTenant(rate float64, d time.Duration) int {
	return max(1, int(rate*d.Seconds()/tenants+0.5))
}

// installAll installs every tenant of w at e, one goroutine per tenant.
func installAll(w *svcWork, e endpoint) error {
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			errs[t] = w.install(e, t)
		}(t)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setupServer starts ambitd and installs w's tenants, returning the server
// and the seconds that took.
func setupServer(bin string, w *svcWork) (*server, float64, error) {
	start := time.Now()
	srv, err := startServer(bin)
	if err != nil {
		return nil, 0, err
	}
	if err := installAll(w, clientEndpoint{srv.client}); err != nil {
		srv.stop()
		return nil, 0, err
	}
	return srv, time.Since(start).Seconds(), nil
}

// warmup runs n checked queries per tenant before timing starts.
func (r *svcRun) warmup(n int) {
	eachTenant(func(t int, _ *loopStats) {
		for k := 0; k < n; k++ {
			i, a, err := r.query(t, nil, "")
			r.finish(t, i, &a, err)
		}
	})
}

// blockLen is the length of one measurement block of a serving run: an
// open-loop phase then a closed-loop phase.  Blocks interleave the two
// phases so that a slow stretch of the host hits both, and each metric is the
// median over blocks.
const blockLen = 2500 * time.Millisecond

// runSvc is the end-to-end run of a serving workload: set-up repeated
// setupReps times, then measurement blocks, each an open-loop phase at the
// workload's fixed rate for latency followed by a closed-loop phase at
// maxConns connections for capacity.
//
// ambitd gets slower with every query it serves (its bank-utilisation
// timeline is copied whenever it grows), so latencies rise steadily through
// a run, and each metric is read at the middle of the run (atMid).  A query
// is several requests long, so a stall of the shared host lands in many
// queries but in few requests: query_p50_ms is the typical open-loop query
// at the middle of the run, the sum of the median wait and of each
// request's median latency there (typicalMS), and qps the closed loop's
// capacity at its typical query time, maxConns / typical latency (Little's
// law).  The direct median and the windowed tail of whole queries and the
// measured throughput of each block are kept in the report.
func runSvc(cfg config, o *oracle, tl *tally, m metrics, rep *report) error {
	w := newSvcWork(cfg.workload, cfg.seed)
	var setups []float64
	var srv *server
	for k := 0; k < cfg.setupReps; k++ {
		if srv != nil {
			srv.stop()
		}
		s, secs, err := setupServer(cfg.ambitd, w)
		if err != nil {
			return err
		}
		srv = s
		setups = append(setups, secs)
	}
	defer srv.stop()
	r := &svcRun{w: w, e: clientEndpoint{srv.client}, o: o, t: tl}
	r.warmup(2)
	cpu0, err := srv.cpu()
	if err != nil {
		return err
	}
	blocks := max(1, int((cfg.run+blockLen/2)/blockLen))
	blockDur := cfg.run / time.Duration(blocks)
	load := svcLoad[w.name]
	nOpen, nClosed := perTenant(load.open, blockDur*75/100), perTenant(load.closed, blockDur*25/100)
	var opens, closeds loopStats
	var qpss []float64
	for b := 0; b < blocks; b++ {
		open := r.openLoop(nOpen, load.open, cfg.seed*100+int64(b))
		closed := r.closedLoop(nClosed)
		qpss = append(qpss, float64(len(closed.lat))/closed.elapsed.Seconds())
		opens.merge(open)
		closeds.merge(closed)
	}
	queries := len(opens.lat) + len(closeds.lat)
	cpu1, err := srv.cpu()
	if err != nil {
		return err
	}
	peak, err := procPeakMiB(srv.pid)
	if err != nil {
		return err
	}
	mid := float64(queries+1) / 2
	openMid, openSlope := atMid(opens.lat, mid)
	tailMS, pct, windows := windowedTail(openMid)
	openMS, openSteps := typicalMS(opens.steps, mid)
	closedMS, closedSteps := typicalMS(closeds.steps, mid)
	m.set("setup_s", median(setups), "s")
	m.set("qps", maxConns*1000/closedMS, "1/s")
	m.set("query_p50_ms", openMS, "ms")
	m.set("cpu_ms_per_query", ms(cpu1-cpu0)/float64(queries), "ms")
	m.set("rss_mb", peak, "MiB")
	rep.Notes["setup_runs_s"] = setups
	rep.Notes["open_rate_qps"] = load.open
	rep.Notes["queries_per_block"] = map[string]int{"open": nOpen * tenants, "closed": nClosed * tenants}
	rep.Notes["blocks"] = blocks
	rep.Notes["block_qps"] = qpss
	rep.Notes["step_p50_ms"] = map[string][]float64{"open": openSteps, "closed": closedSteps}
	rep.Notes["query_median_ms"] = median(openMid)
	rep.Notes["query_slope_ms_per_query"] = openSlope
	rep.Notes["query_tail_ms"] = tailMS
	rep.Notes["tail_percentile"] = pct
	rep.Notes["tail_windows"] = windows
	rep.Notes["tail_samples"] = len(opens.lat)
	rep.Notes["open_latency_ms"] = spread(latencies(opens.lat))
	rep.Notes["late_p99_ms"] = quantile(opens.late, 0.99)
	rep.Notes["retries_429"] = r.retries.Load()
	return nil
}
