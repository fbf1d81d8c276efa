package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail returns the highest percentile of xs with at least ten samples beyond
// it, and that percentile.  With fewer than eleven samples it is the maximum.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 11 {
		return s[len(s)-1], 100
	}
	i := len(s) - 11
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// tailWindow is the fewest queries a tail is taken over.
const tailWindow = 100

// windowedTail splits xs, in the order the queries ran, into consecutive
// windows of at least tailWindow samples, takes each window's tail and
// returns their median, the first window's percentile and the number of
// windows.  The median over windows keeps one stall from setting a run's
// tail.
func windowedTail(xs []float64) (v, pct float64, windows int) {
	windows = max(1, len(xs)/tailWindow)
	size := len(xs) / windows
	var tails []float64
	for w := 0; w < windows; w++ {
		hi := (w + 1) * size
		if w == windows-1 {
			hi = len(xs)
		}
		t, p := tail(xs[w*size : hi])
		if w == 0 {
			pct = p
		}
		tails = append(tails, t)
	}
	return median(tails), pct, windows
}

// sample is one timed query or step: x is the query's place in the run's
// sequence of queries, and ms its latency.
type sample struct{ x, ms float64 }

func latencies(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, q := range s {
		out[i] = q.ms
	}
	return out
}

// maxFit caps the samples a trend is fitted to; longer series are thinned
// evenly.
const maxFit = 512

// theilSen returns the median of the slopes between every pair of samples
// with distinct x (the Theil-Sen estimator), a line fit that a minority of
// stalled queries cannot tilt.
func theilSen(s []sample) float64 {
	if step := (len(s) + maxFit - 1) / maxFit; step > 1 {
		var thin []sample
		for i := 0; i < len(s); i += step {
			thin = append(thin, s[i])
		}
		s = thin
	}
	var slopes []float64
	for i := range s {
		for j := i + 1; j < len(s); j++ {
			if dx := s[j].x - s[i].x; dx != 0 {
				slopes = append(slopes, (s[j].ms-s[i].ms)/dx)
			}
		}
	}
	return median(slopes)
}

// atMid moves every latency along the series' trend to x = mid and returns
// them in x order, with the slope in ms per query.  The program gets slower
// as it serves (see runSvc), so a run's raw latencies form a ramp whose
// median rests on the few queries in its middle; moved to the middle of the
// run, every query estimates the same value.
func atMid(s []sample, mid float64) ([]float64, float64) {
	s = append([]sample(nil), s...)
	sort.Slice(s, func(i, j int) bool { return s[i].x < s[j].x })
	slope := theilSen(s)
	out := make([]float64, len(s))
	for i, q := range s {
		out[i] = q.ms - slope*(q.x-mid)
	}
	return out, slope
}

// typicalMS is the time of a typical query at x = mid: the sum over the
// query's steps of each step's median latency moved to mid, which it also
// returns.  A stall of the host lengthens the one step it lands in, so it
// moves a step's median only once it hits half of that step's samples.
func typicalMS(steps [][]sample, mid float64) (float64, []float64) {
	var sum float64
	var parts []float64
	for _, s := range steps {
		atMidMS, _ := atMid(s, mid)
		parts = append(parts, median(atMidMS))
		sum += parts[len(parts)-1]
	}
	return sum, parts
}

// spread summarizes a latency sample for the report.
func spread(xs []float64) map[string]float64 {
	out := map[string]float64{}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		out[strconv.FormatFloat(100*q, 'g', -1, 64)] = quantile(xs, q)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ, 100 on
// Linux).
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user plus system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// hostSteal returns the CPU time the hypervisor has stolen from this host,
// summed over CPUs (the steal column of /proc/stat).
func hostSteal() (time.Duration, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: no cpu line")
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/stat: steal: %v", err)
	}
	return time.Duration(ticks) * clockTick, nil
}

// procPeakMiB returns a process's peak resident set (VmHWM) in MiB.
func procPeakMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM: %v", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
