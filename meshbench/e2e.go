package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	om "obliviousmesh"
	"obliviousmesh/internal/mesh"
)

// runEndToEnd is the untraced run. After set-up and warm-up it runs two
// phases against the same servers:
//
//   - bulk: closed-loop bulk batches over `connections` clients to one
//     standalone daemon (routes_per_s, congestion), cut into slices with
//     a window of small batches through the gateway at the low rate
//     after each (p50_ms.low);
//   - ladder: small batches through the gateway at each higher fixed
//     offered rate of the workload's ladder (knee_rps).
//
// Figures whose run-to-run spread on a small machine is wider than any
// bound a regression check could hold them to — batch_p50_ms,
// batch_p95_ms, p50_ms.high, p99_ms.low, p99_ms.high — are printed in
// the report but left out of the JSON result.
func runEndToEnd(sp *spec, ws workloadSpec, name string, seed uint64, seconds float64, f faults, out io.Writer) (*result, error) {
	in, err := newInputs(sp, ws, seed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	// setup_s: the median of several full set-ups; the last cluster
	// serves the load.
	var setups []float64
	var cl *cluster
	for i := 0; i < sp.SetupRepeats; i++ {
		if cl != nil {
			cl.close()
		}
		// Each set-up starts on a collected heap, so the garbage of the
		// clusters before it is not collected inside its timing.
		runtime.GC()
		t0 := time.Now()
		cl, err = startCluster(ctx, in.m, seed+f.seedSkew, ws.KSample, 1, sp.Backends)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer cl.close()

	conns := min(sp.Connections, runtime.NumCPU())
	daemon, gw := client(cl.nodes[0].url), client(cl.gwNode.url)
	bulkF := make([]*fetcher, conns)
	smallF := make([]*fetcher, conns)
	for w := range bulkF {
		bulkF[w], smallF[w] = newFetcher(in, daemon), newFetcher(in, gw)
	}
	passes := newPassLoads(in)
	bulkSend := func(w, i int) (int, time.Time, error) {
		pairs, ref := in.bulkBatch(i)
		err := bulkF[w].fetch(ctx, pairs, ref)
		done := time.Now()
		if err == nil && in.k > 1 {
			passes.add(i, bulkF[w].sps)
		}
		return len(pairs), done, err
	}
	smallSend := func(w, i int) (int, time.Time, error) {
		pairs, ref := in.smallBatch(i)
		err := smallF[w].fetch(ctx, pairs, ref)
		return len(pairs), time.Now(), err
	}

	res := newResult()
	var total phase
	tally := func(p *phase) *phase {
		total.attempted += p.attempted
		total.failed += p.failed
		return p
	}

	// Bulk slices and low windows take the batches after the ones
	// before them, so bulk passes run on across slices and no window
	// replays an earlier one from a warm cache.
	nextBulk, nextSmall := 0, 0
	bulkPhase := func(d time.Duration, minReqs int) *phase {
		base := nextBulk
		p := tally(closedLoop(conns, d, minReqs, func(w, i int) (int, time.Time, error) {
			return bulkSend(w, base+i)
		}))
		nextBulk += len(p.lat)
		return p
	}
	openPhase := func(rate float64, d time.Duration) *phase {
		base := nextSmall
		p := tally(openLoop(conns, rate, d, func(w, i int) (int, time.Time, error) {
			return smallSend(w, base+i)
		}))
		nextSmall += len(p.lat)
		return p
	}

	// Warm-up fills caches, pools and connections with one pass over the
	// bulk batches; its responses are verified like any other.
	bulkPhase(0, max(len(in.bulk), 2*conns))
	openPhase(ws.Rates.Low, 300*time.Millisecond)
	heapMB := liveHeap() / 1e6
	passes.reset()
	nextBulk = 0

	// The bulk phase is cut into slices, each followed by a window of
	// the low rate through the gateway, so both routes_per_s and
	// p50_ms.low pool samples from across the first part of the run
	// instead of from one stretch of a few seconds. A closed-loop slice
	// leaves no backlog behind, so the window after it starts on an
	// idle system. The last slice runs until at least one whole pass
	// over the bulk batches is in.
	budget := time.Duration(seconds * float64(time.Second))
	open := (1 - sp.BulkShare) * float64(budget)
	slice := time.Duration(sp.BulkShare * float64(budget) / float64(sp.Slices))
	window := time.Duration(sp.PointShare * open / float64(sp.Slices))
	bulk, low := &phase{}, &phase{}
	for j := 0; j < sp.Slices; j++ {
		minReqs := 0
		if j == sp.Slices-1 {
			minReqs = len(in.bulk) - nextBulk
		}
		bulk.merge(bulkPhase(slice, minReqs))
		// Pay the slice's garbage here, not inside the window: in a
		// deployment the bulk daemon collects in a process of its own.
		runtime.GC()
		low.merge(openPhase(ws.Rates.Low, window))
	}
	cl.retire(0)
	// Collect the retired daemon's heap now, not inside the first rung.
	runtime.GC()

	// The high rung gets point_share of the open-loop time, like the
	// low windows together; the other rungs above the low rate, which
	// place the knee, share the rest. Every rung starts from the first
	// small batch. Above the high rung the ladder stops after two
	// consecutive rungs miss the limit: past the knee every rung only
	// adds backlog.
	lad := ws.Rates.Ladder
	point := time.Duration(sp.PointShare * open)
	rung := time.Duration((1 - 2*sp.PointShare) * open / float64(len(lad)-2))
	fmt.Fprintf(out, "workload %s seed %d: %d daemons + gateway over %d, k=%d, %d connections\n",
		name, seed, len(cl.daemons), sp.Backends, ws.KSample, conns)
	fmt.Fprintf(out, "  bulk: %d batches of %d in %.2fs\n", bulk.attempted, sp.BulkBatch, bulk.elapsed.Seconds())
	fmt.Fprintf(out, "  %-8s %10s %10s %10s %12s %6s\n", "rate/s", "p50_ms", "p99_ms", "late_p99", "achieved/s", "fails")
	row := func(rate float64, p *phase) (p50, p99 float64) {
		p50, p99 = quantile(p.lat, 0.5), quantile(p.lat, 0.99)
		fmt.Fprintf(out, "  %-8.0f %10.3f %10.3f %10.3f %12.1f %6d\n", rate, p50, p99,
			quantile(p.late, 0.99), float64(p.attempted-p.failed)/p.elapsed.Seconds(), p.failed)
		return p50, p99
	}
	lowP50, lowP99 := row(ws.Rates.Low, low)
	res.add("p50_ms.low", lowP50, "ms")
	res.note("p99_ms.low", lowP99, "ms")
	rates, p99s := []float64{ws.Rates.Low}, []float64{lowP99}
	misses := 0
	for _, rate := range lad[1:] {
		if misses == 2 && rate > ws.Rates.High {
			break
		}
		d := rung
		if rate == ws.Rates.High {
			d = point
		}
		time.Sleep(50 * time.Millisecond) // let the previous rung drain
		p50, p99 := row(rate, tally(openLoop(conns, rate, d, smallSend)))
		rates, p99s = append(rates, rate), append(p99s, p99)
		if p99 > sp.KneeLimitMs {
			misses++
		} else {
			misses = 0
		}
		if rate == ws.Rates.High {
			res.note("p50_ms.high", p50, "ms")
			res.note("p99_ms.high", p99, "ms")
		}
	}

	res.add("setup_s", median(setups), "s")
	res.add("heap_mb", heapMB, "MB")
	res.add("routes_per_s", float64(bulk.routes)/bulk.elapsed.Seconds(), "1/s")
	res.note("batch_p50_ms", quantile(bulk.lat, 0.5), "ms")
	res.note("batch_p95_ms", quantile(bulk.lat, 0.95), "ms")
	res.add("knee_rps", knee(rates, p99s, sp.KneeLimitMs), "1/s")
	cong := float64(in.refCongestion)
	if in.k > 1 {
		cong = passes.median()
	}
	res.add("congestion", cong, "load")

	res.Attempted, res.Failed = total.attempted, total.failed
	res.note("fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	if res.Failed > 0 {
		res.fail("fail_ratio > 0")
	}
	return res, nil
}

// passLoads books decoded bulk paths per complete pass over the bulk
// batches, for the congestion of k>1 workloads.
type passLoads struct {
	in    *inputs
	mu    sync.Mutex
	loads map[int]*om.LiveLoads
	count map[int]int
	maxes []float64
}

func newPassLoads(in *inputs) *passLoads {
	p := &passLoads{in: in}
	p.reset()
	return p
}

func (p *passLoads) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.loads, p.count, p.maxes = map[int]*om.LiveLoads{}, map[int]int{}, nil
}

// add books the paths of bulk request i; the pass it belongs to is
// scored once all of its batches are in.
func (p *passLoads) add(i int, sps []mesh.SegPath) {
	pass := i / len(p.in.bulk)
	p.mu.Lock()
	l := p.loads[pass]
	if l == nil {
		l = om.NewLiveLoads(p.in.m, 1)
		p.loads[pass] = l
	}
	p.mu.Unlock()
	for j, sp := range sps {
		l.AddSegPath(p.in.m, uint64(j), sp)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count[pass]++
	if p.count[pass] == len(p.in.bulk) {
		p.maxes = append(p.maxes, float64(l.Max()))
		delete(p.loads, pass)
	}
}

// median is the median pass congestion, NaN before any pass completed.
func (p *passLoads) median() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return median(p.maxes)
}
