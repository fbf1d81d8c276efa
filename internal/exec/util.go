package exec

import "sync"

// Bank-utilization collector: the data source of the telemetry server's
// /banks endpoint.  Every reserved command-train interval [startNS, endNS) on
// a bank is folded into fixed-width simulated-time bins, giving the per-bank
// busy-fraction timeline the paper's Figure 10-style utilization discussion
// reports.  Banks reserve disjoint intervals on their own timelines, so the
// per-bin busy time never exceeds the bin width and the fraction is exact,
// not sampled.

// DefaultUtilBinNS is the default timeline resolution: 1 µs of simulated
// time per bin, fine enough to resolve individual multi-row operations
// (a row-wide AND is ~200 ns).
const DefaultUtilBinNS = 1000.0

// UtilRetainBins is how many of the most recent bins each bank keeps: 64 Ki
// bins, about 65 ms of simulated time at the default resolution and far
// above the 1 ms default admission saturation window.  Older bins leave the
// timeline (their busy time stays in TotalBusyNS), so the collector's memory
// is bounded however long the System runs.  A power of two, so a bin's ring
// slot is a mask.
const UtilRetainBins = 1 << 16

// MaxUtilTags caps the per-tag busy-time map: once full, new tags fold into
// the UtilOverflowTag entry so an unbounded tenant churn cannot grow the
// collector without bound.
const MaxUtilTags = 1024

// UtilOverflowTag is the fold-in key for busy time recorded past MaxUtilTags.
const UtilOverflowTag = "_overflow"

// Util accumulates per-bank busy time in fixed-width simulated-time bins.
// All methods are safe for concurrent use; Record is called once per
// row-level command train, far off any per-command hot path.
//
// Each bank keeps only its most recent UtilRetainBins bins, in a ring that
// grows by doubling until it reaches that size and then wraps, so a record
// costs amortised O(bins touched) and allocates nothing in steady state.
//
// Busy time is additionally attributed per tag (the serving layer's tenant
// namespace) via RecordTagged, answering "which namespace is burning bank
// time" — the per-tenant slice of the Figure 10-style utilization story.
type Util struct {
	mu      sync.Mutex
	binNS   float64
	banks   []bankBins
	endNS   float64 // latest interval end seen
	tagBusy map[string]float64
}

// bankBins is one bank's retained timeline.  ring[b%UtilRetainBins] holds
// bin b for every retained bin b in [hi-len(ring), hi); before the ring
// first wraps, len(ring) == hi and bin b sits at ring[b].
type bankBins struct {
	ring []float64
	hi   int // one past the highest bin recorded
	// evictedNS is the busy time of the bins that left the ring, summed in
	// bin order, so TotalBusyNS adds the same terms in the same order as a
	// sum over the whole timeline would.  A record into an already evicted
	// bin adds its piece here directly.
	evictedNS float64
}

// lo returns the oldest retained bin.
func (k *bankBins) lo() int { return k.hi - len(k.ring) }

// extend makes bin b retained, evicting the bins that fall more than
// UtilRetainBins behind it and zeroing the slots of the bins it opens.
func (k *bankBins) extend(b int) {
	need := b + 1
	if need <= k.hi {
		return
	}
	if need <= UtilRetainBins {
		if need > cap(k.ring) {
			grown := make([]float64, len(k.ring), min(max(2*cap(k.ring), need), UtilRetainBins))
			copy(grown, k.ring)
			k.ring = grown
		}
		// Slots past len were never written, so they are already zero.
		k.ring = k.ring[:need]
		k.hi = need
		return
	}
	const mask = UtilRetainBins - 1
	oldLo := k.lo()
	if len(k.ring) < UtilRetainBins {
		grown := make([]float64, UtilRetainBins)
		copy(grown, k.ring)
		k.ring = grown
	}
	newLo := need - UtilRetainBins
	for e := oldLo; e < min(newLo, k.hi); e++ {
		k.evictedNS += k.ring[e&mask]
	}
	for b := max(k.hi, newLo); b < need; b++ {
		k.ring[b&mask] = 0
	}
	k.hi = need
}

// NewUtil creates a collector for the given bank count; binNS <= 0 selects
// DefaultUtilBinNS.
func NewUtil(banks int, binNS float64) *Util {
	if binNS <= 0 {
		binNS = DefaultUtilBinNS
	}
	return &Util{binNS: binNS, banks: make([]bankBins, banks)}
}

// Record folds one busy interval [startNS, endNS) on a bank into the
// timeline.  Intervals outside the bank range or with non-positive length
// are ignored.
func (u *Util) Record(bank int, startNS, endNS float64) {
	u.RecordTagged("", bank, startNS, endNS)
}

// RecordTagged is Record with per-tag attribution: the interval's busy time
// is additionally charged to tag's total (empty tag charges nothing extra).
// Past MaxUtilTags distinct tags, new tags fold into UtilOverflowTag.  Busy
// time landing in a bin older than the bank's retained window counts only
// toward the bank's TotalBusyNS.
func (u *Util) RecordTagged(tag string, bank int, startNS, endNS float64) {
	if u == nil || bank < 0 || bank >= len(u.banks) || !(endNS > startNS) || startNS < 0 {
		return
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if tag != "" {
		if u.tagBusy == nil {
			u.tagBusy = map[string]float64{}
		}
		if _, ok := u.tagBusy[tag]; !ok && len(u.tagBusy) >= MaxUtilTags {
			tag = UtilOverflowTag
		}
		u.tagBusy[tag] += endNS - startNS
	}
	if endNS > u.endNS {
		u.endNS = endNS
	}
	first := int(startNS / u.binNS)
	last := int(endNS / u.binNS)
	k := &u.banks[bank]
	k.extend(last)
	lo := k.lo()
	for b := first; b <= last; b++ {
		blo, bhi := float64(b)*u.binNS, float64(b+1)*u.binNS
		if startNS > blo {
			blo = startNS
		}
		if endNS < bhi {
			bhi = endNS
		}
		if bhi > blo {
			if b < lo {
				k.evictedNS += bhi - blo
			} else {
				k.ring[b&(UtilRetainBins-1)] += bhi - blo
			}
		}
	}
}

// BankUtil is one bank's busy-fraction timeline.
type BankUtil struct {
	// Bank is the bank index.
	Bank int `json:"bank"`
	// BusyFraction[i] is the fraction of bin i the bank spent executing
	// command trains, in [0, 1].
	BusyFraction []float64 `json:"busy_fraction"`
	// TotalBusyNS is the bank's total recorded busy time.
	TotalBusyNS float64 `json:"total_busy_ns"`
}

// UtilSnapshot is a self-contained copy of the collector's retained state.
// Every bank's timeline covers the same bins, so rows align column for
// column: the last UtilRetainBins bins up to the latest recorded one.
type UtilSnapshot struct {
	// BinNS is the timeline resolution in simulated nanoseconds per bin.
	BinNS float64 `json:"bin_ns"`
	// StartNS is the simulated start time of the first retained bin,
	// BusyFraction[0] of every bank; 0 until the timeline outgrows the
	// retention window.
	StartNS float64 `json:"start_ns"`
	// EndNS is the latest simulated completion time recorded.
	EndNS float64 `json:"end_ns"`
	// Banks holds one timeline per bank, in bank order.
	Banks []BankUtil `json:"banks"`
}

// TailBusyFraction returns the mean busy fraction across all banks over the
// trailing windowNS of recorded simulated time (ending at the latest
// recorded interval end), in [0, 1].  It scans only the tail bins, so it is
// cheap enough to call per admission decision; before anything is recorded
// it returns 0.  A window longer than the retained timeline is cut to it.
func (u *Util) TailBusyFraction(windowNS float64) float64 {
	if u == nil || windowNS <= 0 {
		return 0
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.endNS <= 0 || len(u.banks) == 0 {
		return 0
	}
	last := int(u.endNS / u.binNS)
	startNS := u.endNS - windowNS
	if retained := float64(last+1-UtilRetainBins) * u.binNS; startNS < retained {
		startNS = retained
	}
	if startNS < 0 {
		startNS = 0
	}
	first := int(startNS / u.binNS)
	var busy float64
	for i := range u.banks {
		k := &u.banks[i]
		for b := max(first, k.lo()); b <= last && b < k.hi; b++ {
			lo, hi := float64(b)*u.binNS, float64(b+1)*u.binNS
			if startNS > lo {
				lo = startNS
			}
			if u.endNS < hi {
				hi = u.endNS
			}
			if hi <= lo {
				continue
			}
			// The bin's busy time, attributed uniformly within the bin.
			busy += k.ring[b&(UtilRetainBins-1)] * (hi - lo) / u.binNS
		}
	}
	window := u.endNS - startNS
	f := busy / (window * float64(len(u.banks)))
	if f > 1 {
		f = 1
	}
	return f
}

// TagBusyNS returns the total busy nanoseconds attributed to tag by
// RecordTagged (0 for unknown tags).
func (u *Util) TagBusyNS(tag string) float64 {
	if u == nil {
		return 0
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.tagBusy[tag]
}

// TagBusySnapshot returns a copy of the per-tag busy-time totals.
func (u *Util) TagBusySnapshot() map[string]float64 {
	if u == nil {
		return nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make(map[string]float64, len(u.tagBusy))
	for k, v := range u.tagBusy {
		out[k] = v
	}
	return out
}

// Snapshot returns the retained busy-fraction timelines.
func (u *Util) Snapshot() UtilSnapshot {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := 0
	for i := range u.banks {
		n = max(n, u.banks[i].hi)
	}
	first := max(n-UtilRetainBins, 0)
	snap := UtilSnapshot{
		BinNS: u.binNS, StartNS: float64(first) * u.binNS, EndNS: u.endNS,
		Banks: make([]BankUtil, len(u.banks)),
	}
	for bank := range u.banks {
		k := &u.banks[bank]
		bu := BankUtil{Bank: bank, BusyFraction: make([]float64, n-first), TotalBusyNS: k.evictedNS}
		for b := k.lo(); b < k.hi; b++ {
			busy := k.ring[b&(UtilRetainBins-1)]
			bu.TotalBusyNS += busy
			if b < first {
				continue
			}
			f := busy / u.binNS
			if f > 1 {
				f = 1 // float round-off; busy time per bin cannot exceed the bin
			}
			bu.BusyFraction[b-first] = f
		}
		snap.Banks[bank] = bu
	}
	return snap
}
