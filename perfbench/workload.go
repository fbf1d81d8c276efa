package main

import (
	"fmt"
	"math/rand"
)

const (
	// vecBits is the paper's 8M-user point: 128 DRAM rows of 8 KiB.
	vecBits  = 8 << 20
	vecWords = vecBits / 64
	vecRows  = 128
	tenants  = 2
	days     = 7
	// ingestPool is how many distinct day bitmaps each svc-ingest tenant
	// cycles through.
	ingestPool = 6
	// lessWidth is the bit width of the CompileLess range predicate.
	lessWidth = 4
)

// randWords returns seeded words with about a quarter (sparse) or three
// quarters of their bits set.
func randWords(r *rand.Rand, sparse bool) []uint64 {
	ws := make([]uint64, vecWords)
	for i := range ws {
		if sparse {
			ws[i] = r.Uint64() & r.Uint64()
		} else {
			ws[i] = r.Uint64() | r.Uint64()
		}
	}
	return ws
}

// request is one call of a serving workload's query.
type request struct {
	route      string // "op", "popcount", "data_write" or "data_read"
	op, dst, a string // op route (b too for binary ops)
	b          string
	vec        string   // popcount and data routes
	words      []uint64 // data_write body
}

// answer collects what a query returned, for the oracle.
type answer struct {
	count int64
	words []uint64
}

// svcWork is a serving workload: per-tenant vectors, the data installed in
// set-up, and the request stream of query i of tenant t.  Queries of one
// tenant run in order; query i's requests depend only on (t, i).
type svcWork struct {
	name     string
	vectors  []string
	initial  [tenants]map[string][]uint64
	requests func(t, i int) []request
	check    func(o *oracle, t, i int, a *answer) bool
}

func nsName(work string, t int) string { return fmt.Sprintf("%s-%d", work, t) }

func newSvcWork(name string, seed int64) *svcWork {
	if name == "svc-ingest" {
		return newIngestWork(seed)
	}
	return newQueryWork(seed)
}

// newQueryWork is svc-query: the Section 8.1 bitmap index.  Each query ORs
// seven daily activity bitmaps into weekly, ANDs it with every (users active
// in all earlier weeks) and popcounts the result.
func newQueryWork(seed int64) *svcWork {
	w := &svcWork{name: "svc-query", vectors: []string{"weekly", "every"}}
	var want [tenants]int64
	for t := 0; t < tenants; t++ {
		r := rand.New(rand.NewSource(seed*1000 + int64(t)))
		data := map[string][]uint64{}
		week := make([]uint64, vecWords)
		for d := 0; d < days; d++ {
			day := randWords(r, true)
			data[fmt.Sprintf("day%d", d)] = day
			week = orWords(week, day)
		}
		data["every"] = randWords(r, false)
		want[t] = popcount(andWords(week, data["every"]))
		w.initial[t] = data
	}
	for d := 0; d < days; d++ {
		w.vectors = append(w.vectors, fmt.Sprintf("day%d", d))
	}
	w.requests = func(t, i int) []request {
		rs := []request{{route: "op", op: "copy", dst: "weekly", a: "day0"}}
		for d := 1; d < days; d++ {
			rs = append(rs, request{route: "op", op: "or", dst: "weekly", a: "weekly", b: fmt.Sprintf("day%d", d)})
		}
		return append(rs,
			request{route: "op", op: "and", dst: "weekly", a: "weekly", b: "every"},
			request{route: "popcount", vec: "weekly"})
	}
	w.check = func(o *oracle, t, i int, a *answer) bool {
		return o.count(fmt.Sprintf("svc-query tenant %d query %d popcount", t, i), a.count, want[t])
	}
	return w
}

// newIngestWork is svc-ingest: each round uploads a fresh 1 MiB day bitmap
// over the costed channel into one of two day slots, ORs the slots into a
// two-day rolling union, reads the union back in full and popcounts it.
// Day k of tenant t is pool[k mod ingestPool]; set-up installs days 0 and 1,
// and round i uploads day i+2 into slot i mod 2.
func newIngestWork(seed int64) *svcWork {
	w := &svcWork{name: "svc-ingest", vectors: []string{"slot0", "slot1", "union"}}
	var pool, union [tenants][ingestPool][]uint64
	var want [tenants][ingestPool]int64
	for t := 0; t < tenants; t++ {
		r := rand.New(rand.NewSource(seed*1000 + 500 + int64(t)))
		for k := range pool[t] {
			pool[t][k] = randWords(r, true)
		}
		// union[k] = day k | day k+1, the slots' contents after round k-1.
		for k := range union[t] {
			union[t][k] = orWords(pool[t][k], pool[t][(k+1)%ingestPool])
			want[t][k] = popcount(union[t][k])
		}
		w.initial[t] = map[string][]uint64{"slot0": pool[t][0], "slot1": pool[t][1]}
	}
	w.requests = func(t, i int) []request {
		return []request{
			{route: "data_write", vec: fmt.Sprintf("slot%d", i%2), words: pool[t][(i+2)%ingestPool]},
			{route: "op", op: "or", dst: "union", a: "slot0", b: "slot1"},
			{route: "data_read", vec: "union"},
			{route: "popcount", vec: "union"},
		}
	}
	w.check = func(o *oracle, t, i int, a *answer) bool {
		k := (i + 1) % ingestPool
		what := fmt.Sprintf("svc-ingest tenant %d round %d", t, i)
		okWords := o.words(what+" read-back", a.words, union[t][k])
		return o.count(what+" popcount", a.count, want[t][k]) && okWords
	}
	return w
}

// install creates tenant t's namespace and vectors on e and uploads its
// set-up data over the costed channel.
func (w *svcWork) install(e endpoint, t int) error {
	ns := nsName(w.name, t)
	if err := e.createNS(ns); err != nil {
		return fmt.Errorf("create namespace %s: %w", ns, err)
	}
	for _, v := range w.vectors {
		if err := e.createVec(ns, v, vecBits); err != nil {
			return fmt.Errorf("create vector %s/%s: %w", ns, v, err)
		}
	}
	for _, v := range w.vectors {
		if data := w.initial[t][v]; data != nil {
			if err := e.write(ns, v, data); err != nil {
				return fmt.Errorf("install %s/%s: %w", ns, v, err)
			}
		}
	}
	return nil
}

// do sends one request to e, filling a with what it returns.
func do(e endpoint, ns string, r request, a *answer) error {
	var err error
	switch r.route {
	case "op":
		err = e.op(ns, r.op, r.dst, r.a, r.b)
	case "popcount":
		a.count, err = e.popcount(ns, r.vec)
	case "data_write":
		err = e.write(ns, r.vec, r.words)
	case "data_read":
		a.words, err = e.read(ns, r.vec)
	default:
		err = fmt.Errorf("unknown route %q", r.route)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", r.route, r.op+r.vec, err)
	}
	return nil
}

// libInputs is the lib-* workloads' data: the svc-query bitmap index of one
// tenant plus bit-sliced columns for a CompileLess range predicate col < k,
// whose constant alternates between two seeded values so that consecutive
// Func.Run outputs differ.
type libInputs struct {
	days     [days][]uint64
	every    []uint64
	cols     [lessWidth][]uint64
	k        [2]uint64
	count    int64
	lessWant [2][]uint64
}

func newLibInputs(seed int64) *libInputs {
	r := rand.New(rand.NewSource(seed*1000 + 900))
	in := &libInputs{}
	week := make([]uint64, vecWords)
	for d := range in.days {
		in.days[d] = randWords(r, true)
		week = orWords(week, in.days[d])
	}
	in.every = randWords(r, false)
	in.count = popcount(andWords(week, in.every))
	for i := range in.cols {
		in.cols[i] = randWords(r, i%2 == 0)
	}
	in.k[0] = 1 + uint64(r.Intn(1<<lessWidth-1))
	in.k[1] = in.k[0] ^ (1 + uint64(r.Intn(1<<lessWidth-1)))
	for j := range in.k {
		in.lessWant[j] = lessThan(in.cols[:], in.k[j])
	}
	return in
}
