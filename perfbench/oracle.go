package main

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// oracle checks answers from the program against the host-side bit model.
// Checks run after a query's timed span ends.
type oracle struct {
	// corrupt makes the first expected answer wrong, so a self-test can
	// show that a mismatch fails the run.
	corrupt bool
	planted atomic.Bool

	wrong atomic.Int64
	mu    sync.Mutex
	first string
}

func (o *oracle) plant() bool { return o.corrupt && o.planted.CompareAndSwap(false, true) }

func (o *oracle) mismatch(format string, args ...any) bool {
	o.wrong.Add(1)
	o.mu.Lock()
	if o.first == "" {
		o.first = fmt.Sprintf(format, args...)
	}
	o.mu.Unlock()
	return false
}

func (o *oracle) firstMismatch() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.first
}

// count checks a scalar answer such as a popcount.
func (o *oracle) count(what string, got, want int64) bool {
	if o.plant() {
		want++
	}
	if got != want {
		return o.mismatch("%s: got %d, want %d", what, got, want)
	}
	return true
}

// words checks a bitvector answer word for word.
func (o *oracle) words(what string, got, want []uint64) bool {
	if o.plant() {
		want = append([]uint64(nil), want...)
		want[0] ^= 1
	}
	if len(got) != len(want) {
		return o.mismatch("%s: got %d words, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return o.mismatch("%s: word %d is %#x, want %#x", what, i, got[i], want[i])
		}
	}
	return true
}

// tally counts attempted and failed queries.  A query fails when a request
// errors, is refused after its retries, or its answer is wrong.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	first             string
}

// add records one query's outcome.
func (t *tally) add(err error, correct bool) {
	t.attempted.Add(1)
	if err == nil && correct {
		return
	}
	t.failed.Add(1)
	if err != nil {
		t.mu.Lock()
		if t.first == "" {
			t.first = err.Error()
		}
		t.mu.Unlock()
	}
}

func (t *tally) firstError() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.first
}

// Host bit model.

func orWords(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] | b[i]
	}
	return out
}

func andWords(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] & b[i]
	}
	return out
}

func popcount(ws []uint64) int64 {
	var n int
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return int64(n)
}

// lessThan evaluates, lane by lane, the unsigned compare col < k over
// bit-sliced columns (cols[i] holds bit i of every lane, LSB first).
func lessThan(cols [][]uint64, k uint64) []uint64 {
	out := make([]uint64, len(cols[0]))
	for w := range out {
		lt, eq := uint64(0), ^uint64(0)
		for i := len(cols) - 1; i >= 0; i-- {
			a := cols[i][w]
			var b uint64
			if k>>uint(i)&1 == 1 {
				b = ^uint64(0)
			}
			lt |= eq & ^a & b
			eq &= ^(a ^ b)
		}
		out[w] = lt
	}
	return out
}
