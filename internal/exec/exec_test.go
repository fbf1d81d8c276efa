package exec

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"ambit/internal/dram"
)

// addrsByBank returns n addresses with row i in bank bankOf(i).
func addrsByBank(n int, bankOf func(i int) int) []dram.PhysAddr {
	addrs := make([]dram.PhysAddr, n)
	for i := range addrs {
		addrs[i] = dram.PhysAddr{Bank: bankOf(i)}
	}
	return addrs
}

func TestGroupByBank(t *testing.T) {
	// 10 rows over 4 banks, row i -> bank i%4.
	e := New(4, 1)
	p := e.PlanAddrs(addrsByBank(10, func(i int) int { return i % 4 }))
	want := []Group{
		{Bank: 0, Rows: []int{0, 4, 8}},
		{Bank: 1, Rows: []int{1, 5, 9}},
		{Bank: 2, Rows: []int{2, 6}},
		{Bank: 3, Rows: []int{3, 7}},
	}
	if !reflect.DeepEqual(p.Groups(), want) {
		t.Fatalf("groups = %+v, want %+v", p.Groups(), want)
	}
	if got := p.Banks(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("banks = %v", got)
	}
	p.Release()

	// A range plan keeps whole-slice indices and skips unused banks.
	p = e.PlanRange(addrsByBank(10, func(i int) int { return i % 4 }), 3, 7)
	want = []Group{
		{Bank: 0, Rows: []int{4}},
		{Bank: 1, Rows: []int{5}},
		{Bank: 2, Rows: []int{6}},
		{Bank: 3, Rows: []int{3}},
	}
	if !reflect.DeepEqual(p.Groups(), want) {
		t.Fatalf("range groups = %+v, want %+v", p.Groups(), want)
	}
	p.Release()

	p = e.PlanAddrs(nil)
	if len(p.Groups()) != 0 || len(p.Banks()) != 0 {
		t.Fatalf("empty plan has groups %+v", p.Groups())
	}
	if res := e.RunPlan(p, rowRunner{}); res != (Result{ErrRow: -1}) {
		t.Fatalf("empty plan result = %+v", res)
	}
	p.Release()
}

// rowRunner adapts a per-row function to GroupRunner with the prefix
// semantics every runner implements: rows in order, stop at the first
// failure, EndNS = max completion of completed rows.
type rowRunner struct {
	fn func(bank, row int) (float64, error)
}

func (r rowRunner) RunGroup(bank int, rows []int) GroupResult {
	res := GroupResult{ErrRow: -1}
	for _, row := range rows {
		end, err := r.fn(bank, row)
		if err != nil {
			res.Err, res.ErrRow = err, row
			return res
		}
		res.Completed++
		if end > res.EndNS {
			res.EndNS = end
		}
	}
	return res
}

// TestRunMatchesSequential checks the parallel merge against a sequential
// fold for several worker counts.
func TestRunMatchesSequential(t *testing.T) {
	addrs := addrsByBank(64, func(i int) int { return i % 8 })
	r := rowRunner{func(bank, row int) (float64, error) {
		return float64(bank*1000 + row), nil
	}}
	run := func(e *Engine, serial bool) Result {
		p := e.PlanAddrs(addrs)
		defer p.Release()
		if serial {
			return e.RunPlanSerial(p, r)
		}
		return e.RunPlan(p, r)
	}
	want := run(New(8, 1), false)
	for _, w := range []int{2, 4, 16} {
		if got := run(New(8, w), false); got != want {
			t.Fatalf("workers=%d: %+v != %+v", w, got, want)
		}
		if got := run(New(8, w), true); got != want {
			t.Fatalf("workers=%d serial: %+v != %+v", w, got, want)
		}
	}
	if want.Completed != 64 || want.Err != nil || want.ErrRow != -1 {
		t.Fatalf("unexpected sequential result %+v", want)
	}
	if want.EndNS != 7063 { // bank 7, row 63
		t.Fatalf("EndNS = %v", want.EndNS)
	}
}

// TestRunErrorStopsGroupPrefix checks per-bank prefix semantics: the failing
// bank stops at its failing row, other banks complete, and the reported
// error is the lowest-indexed failure.
func TestRunErrorStopsGroupPrefix(t *testing.T) {
	boom := errors.New("boom")
	addrs := addrsByBank(16, func(i int) int { return i % 4 })
	fail := map[int]bool{9: true, 6: true} // banks 1 and 2
	var mu sync.Mutex
	ran := map[int]bool{}
	r := rowRunner{func(bank, row int) (float64, error) {
		if fail[row] {
			return 0, boom
		}
		mu.Lock()
		ran[row] = true
		mu.Unlock()
		return float64(row), nil
	}}
	for _, w := range []int{1, 4} {
		mu.Lock()
		ran = map[int]bool{}
		mu.Unlock()
		e := New(4, w)
		p := e.PlanAddrs(addrs)
		res := e.RunPlan(p, r)
		p.Release()
		if !errors.Is(res.Err, boom) || res.ErrRow != 6 {
			t.Fatalf("workers=%d: err=%v row=%d, want boom at 6", w, res.Err, res.ErrRow)
		}
		// Bank 2 ran {2}, bank 1 ran {1, 5}, banks 0 and 3 ran fully.
		if res.Completed != 1+2+4+4 {
			t.Fatalf("workers=%d: completed=%d", w, res.Completed)
		}
		if ran[6] || ran[9] || ran[10] || ran[13] {
			t.Fatalf("workers=%d: rows after failure ran: %v", w, ran)
		}
		if res.EndNS != 15 {
			t.Fatalf("workers=%d: EndNS=%v", w, res.EndNS)
		}
	}
}

// TestLockDisciplines exercises the shard-locking helpers under concurrency.
func TestLockDisciplines(t *testing.T) {
	e := New(8, 4)
	var wg sync.WaitGroup
	counters := make([]int, 8)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			banks := []int{0, 3, 5}
			if g%2 == 1 {
				banks = []int{g % 8}
			}
			e.LockBanks(banks)
			for _, b := range banks {
				counters[b]++
			}
			e.UnlockBanks(banks)
		}()
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != 8*3+8*1 {
		t.Fatalf("total increments = %d", total)
	}
}

func TestWorkersDefault(t *testing.T) {
	if New(4, 0).workers <= 0 {
		t.Fatal("default workers must be positive")
	}
	if e := New(4, 7); e.workers != 7 {
		t.Fatalf("workers = %d", e.workers)
	}
}
