package main

import (
	"fmt"
	"time"

	"ambit"
	"ambit/internal/compile"
	"ambit/internal/controller"
	"ambit/internal/dram"
)

// probeOps are the bulk operations the per-op layer metrics cover.
var probeOps = []controller.Op{controller.OpAnd, controller.OpOr, controller.OpNot, controller.OpXor}

// timeCalls calls fn repeatedly for about dur, at least five times, and
// returns each call's time in ns.
func timeCalls(dur time.Duration, fn func() error) ([]float64, error) {
	var out []float64
	deadline := time.Now().Add(dur)
	for len(out) < 5 || time.Now().Before(deadline) {
		begin := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(begin)))
	}
	return out, nil
}

// runProbes times calls into single layers' public functions — the
// controller, host I/O, System operations and the compiler — within about
// dur in total.
func runProbes(m metrics, dur time.Duration, in *libInputs) error {
	if err := probeController(m, dur*3/10); err != nil {
		return fmt.Errorf("controller probe: %w", err)
	}
	if err := probeHostIO(m, dur/4, in); err != nil {
		return fmt.Errorf("host I/O probe: %w", err)
	}
	if err := probeSystemOps(m, dur*3/10, in); err != nil {
		return fmt.Errorf("System ops probe: %w", err)
	}
	ts, err := timeCalls(dur*15/100, func() error {
		_, err := compile.CompileFn("lt", compile.Less(lessWidth))
		return err
	})
	if err != nil {
		return fmt.Errorf("compile probe: %w", err)
	}
	m.set("compile.less_ms", median(ts)/1e6, "ms")
	return nil
}

// probeController is the roofline probe: ExecuteOpRowsFused over a 128-row
// group of one bank, per op, against copy() over as many bytes in the same
// process.  Bytes touched per train are the rows the op reads plus the row
// it writes.
func probeController(m metrics, dur time.Duration) error {
	dev, err := dram.NewDevice(dram.DefaultConfig())
	if err != nil {
		return err
	}
	g := dev.Geometry()
	c := controller.New(dev)
	trains := make([]controller.RowTrain, vecRows)
	for r := range trains {
		base := 3 * (r / g.SubarraysPerBank)
		trains[r] = controller.RowTrain{Sub: r % g.SubarraysPerBank, DK: dram.D(base + 2), DI: dram.D(base), DJ: dram.D(base + 1)}
	}
	each := dur / time.Duration(len(probeOps)+2)
	src, dst := make([]byte, vecRows*g.RowSizeBytes), make([]byte, vecRows*g.RowSizeBytes)
	mm, err := timeCalls(each, func() error { copy(dst, src); return nil })
	if err != nil {
		return err
	}
	memmove := 2 * float64(len(src)) / median(mm) // bytes per ns is GB/s
	m.set("controller.memmove_gbps", memmove, "GB/s")
	for _, op := range probeOps {
		ts, err := timeCalls(each, func() error {
			if _, ok := c.ExecuteOpRowsFused(op, 0, trains); !ok {
				return fmt.Errorf("fused %v dispatch rejected", op)
			}
			return nil
		})
		if err != nil {
			return err
		}
		gbps := float64(op.InputRows()+1) * float64(g.RowSizeBytes*vecRows) / median(ts)
		m.set("controller.fused_gbps."+op.String(), gbps, "GB/s")
		m.set("controller.roofline_frac."+op.String(), gbps/memmove, "ratio")
	}
	const batch = 256
	ts, err := timeCalls(each, func() error {
		for i := 0; i < batch; i++ {
			if _, err := c.ScheduleOp(controller.OpAnd, 0, 0, dram.D(2), dram.D(0), dram.D(1), 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("controller.schedule_ns", median(ts)/batch, "ns")
	return nil
}

// probeHostIO times moving one 1 MiB vector between host and device by each
// host I/O call, over the costed channel.
func probeHostIO(m metrics, dur time.Duration, in *libInputs) error {
	sys, err := ambit.New()
	if err != nil {
		return err
	}
	defer sys.Close()
	v, err := sys.Alloc(vecBits)
	if err != nil {
		return err
	}
	buf := make([]uint64, vecWords)
	calls := []struct {
		name string
		fn   func() error
	}{
		{"write", func() error { return v.Write(in.every) }},
		{"readinto", func() error { _, err := v.ReadInto(buf); return err }},
		{"setwords", func() error { _, err := v.SetWords(in.every); return err }},
		{"viewwords", func() error {
			return v.ViewWords(func(views [][]uint64) error {
				off := 0
				for _, row := range views {
					off += copy(buf[off:], row)
				}
				return nil
			})
		}},
	}
	for _, c := range calls {
		ts, err := timeCalls(dur/time.Duration(len(calls)), c.fn)
		if err != nil {
			return err
		}
		m.set("hostio."+c.name+"_gbps", 8*vecWords/median(ts), "GB/s")
	}
	return nil
}

// probeSystemOps times direct System operations on 128-row vectors.
func probeSystemOps(m metrics, dur time.Duration, in *libInputs) error {
	sys, err := ambit.New()
	if err != nil {
		return err
	}
	defer sys.Close()
	var vs [3]*ambit.Bitvector
	for i := range vs {
		if vs[i], err = sys.Alloc(vecBits); err != nil {
			return err
		}
	}
	d, a, b := vs[0], vs[1], vs[2]
	if err := a.Write(in.days[0], ambit.Backdoor()); err != nil {
		return err
	}
	if err := b.Write(in.days[1], ambit.Backdoor()); err != nil {
		return err
	}
	each := dur / time.Duration(len(probeOps)+2)
	perRow := func(name string, fn func() error) error {
		ts, err := timeCalls(each, fn)
		if err == nil {
			m.set(name, median(ts)/vecRows, "ns")
		}
		return err
	}
	for _, op := range probeOps {
		bv := b
		if op.Unary() {
			bv = nil
		}
		if err := perRow("ambit.apply_ns_per_row."+op.String(), func() error { return sys.Apply(op, d, a, bv) }); err != nil {
			return err
		}
	}
	if err := perRow("ambit.copy_ns_per_row", func() error { return sys.Copy(d, a) }); err != nil {
		return err
	}
	return perRow("ambit.popcount_ns_per_row", func() error { _, err := sys.Popcount(a); return err })
}
