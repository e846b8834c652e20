package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	om "obliviousmesh"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/serial"
)

// Layers of the traced replay, outermost last. Each call of a layer
// contains the work of the layer before it in stack, so a layer's self
// time is its duration minus that of the layer below on the same
// request.
const (
	lCore     = "core"
	lEncode   = "serial.encode"
	lDecode   = "serial.decode"
	lHandler  = "server.handler"
	lLoopback = "server.loopback"
	lSeg      = "client.seg"
	lGateway  = "gateway"
)

var stack = []string{lCore, lHandler, lLoopback, lGateway}

// parentOf names the layer whose call contains a layer's work.
var parentOf = map[string]string{
	lCore: lHandler, lEncode: lHandler, lHandler: lLoopback,
	lLoopback: lGateway, lDecode: lSeg, lSeg: "",
	lGateway: "",
}

// span is one timed call into a layer, kept in memory and written out
// when the run ends.
type span struct {
	Workload string `json:"workload"`
	Shape    string `json:"shape"`
	Layer    string `json:"layer"`
	Req      int    `json:"req"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   string `json:"parent"`
	Routes   int    `json:"routes"`
}

type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

// timed runs fn as one span of layer for request req.
func (t *tracer) timed(shape, layer string, req, routes int, fn func() error) error {
	s := time.Now()
	err := fn()
	e := time.Now()
	t.spans = append(t.spans, span{Workload: t.workload, Shape: shape, Layer: layer, Req: req,
		StartNs: s.Sub(t.t0).Nanoseconds(), EndNs: e.Sub(t.t0).Nanoseconds(),
		Parent: parentOf[layer], Routes: routes})
	return err
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals sums the spans of one shape: µs per layer and routes and
// requests per layer.
type layerTotals struct {
	us       map[string]float64
	routes   map[string]int
	requests map[string]int
}

func (t *tracer) totals(shape string) layerTotals {
	lt := layerTotals{us: map[string]float64{}, routes: map[string]int{}, requests: map[string]int{}}
	for _, s := range t.spans {
		if s.Shape != shape {
			continue
		}
		lt.us[s.Layer] += float64(s.EndNs-s.StartNs) / 1e3
		lt.routes[s.Layer] += s.Routes
		lt.requests[s.Layer]++
	}
	return lt
}

func (lt layerTotals) perRoute(layer string) float64 { return lt.us[layer] / float64(lt.routes[layer]) }
func (lt layerTotals) perReq(layer string) float64   { return lt.us[layer] / float64(lt.requests[layer]) }

// memWriter is an in-memory http.ResponseWriter: the handler layer is
// timed without a socket.
type memWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Flush()                      {}

func (w *memWriter) reset() {
	w.hdr, w.code = http.Header{}, http.StatusOK
	w.body.Reset()
}

// batchRequest is the wire2 batch request a client sends for pairs.
func batchRequest(pairs []mesh.Pair) *http.Request {
	b := []byte(`{"pairs":[`)
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(p.S), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.T), 10)
		b = append(b, ']')
	}
	b = append(b, "]}"...)
	req, err := http.NewRequest(http.MethodPost, "/v1/batch?format=wire2", bytes.NewReader(b))
	if err != nil {
		panic(err) // constant method and URL
	}
	req.Header.Set("Content-Type", "application/json")
	return req
}

// cacheStats reads Router.ChainCacheStats through reflection: the
// chain cache is slated for removal, and the benchmark must keep
// building unchanged once it is gone (ok is then false).
func cacheStats(r any) (hits, misses int64, ok bool) {
	m := reflect.ValueOf(r).MethodByName("ChainCacheStats")
	if !m.IsValid() || m.Type().NumIn() != 0 || m.Type().NumOut() != 2 {
		return 0, 0, false
	}
	out := m.Call(nil)
	if !out[1].Bool() {
		return 0, 0, false
	}
	h, mi := out[0].FieldByName("Hits"), out[0].FieldByName("Misses")
	if !h.IsValid() || !mi.IsValid() {
		return 0, 0, false
	}
	return h.Int(), mi.Int(), true
}

// scrape fetches a /metrics exposition and sums it by bare metric name.
func scrape(ctx context.Context, c *om.Client) (map[string]float64, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			vals[name] += v
		}
	}
	return vals, nil
}

// liveHeap is the heap in use after collecting garbage twice: the first
// cycle only moves sync.Pool contents to the pools' victim caches, and
// pooled scratch can keep a dead router reachable until the second.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runTraced replays the workload's own batches layer by layer from
// outside the program — router, encoder and decoder, in-memory
// handler, loopback daemon, client decode, gateway — and times each
// call as a span. Before that it runs a short open-loop segment at the
// workload's high rate against a cluster shaped like the end-to-end
// one, for the counters that need load: sheds, connections, hedges and
// the generator's lateness.
func runTraced(sp *spec, ws workloadSpec, name string, seed uint64, seconds float64, out io.Writer) (*result, error) {
	in, err := newInputs(sp, ws, seed)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(seconds * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }
	res := newResult()
	ropts := om.RouterOptions{Seed: seed, KSample: ws.KSample}

	rs, err := measureRouter(in, ropts, share(0.1))
	if err != nil {
		return nil, err
	}
	ld, err := loadSegment(sp, ws, in, seed, share(0.15))
	if err != nil {
		return nil, err
	}
	rp, err := replayLayers(sp, ws, in, name, seed, ropts, share(0.3), share(0.2))
	if err != nil {
		return nil, err
	}
	ksUs, err := ksampleCost(in, seed, share(0.1))
	if err != nil {
		return nil, err
	}

	bulk, small := rp.tr.totals("bulk"), rp.tr.totals("small")
	res.add("core.select_us_per_route", bulk.perRoute(lCore), "us")
	res.add("core.alloc_bytes_per_route", rp.coreAlloc, "B")
	res.add("core.ksample_us_per_route", ksUs, "us")
	res.add("core.new_router_ms", rs.newMs, "ms")
	res.add("core.router_heap_mb", rs.heapMB, "MB")
	res.add("chaincache.hit_ratio", rs.hitRatio, "ratio")
	res.add("serial.encode_us_per_route", bulk.perRoute(lEncode), "us")
	res.add("serial.decode_us_per_route", bulk.perRoute(lDecode), "us")
	res.add("serial.wire_bytes_per_route", float64(rp.wireBytes)/float64(bulk.routes[lEncode]), "B")
	res.add("server.handler_us_per_route", bulk.perRoute(lHandler), "us")
	res.add("server.handler_alloc_bytes_per_request", rp.handlerAlloc, "B")
	res.add("server.handler_us_per_request", small.perReq(lHandler), "us")
	res.add("server.loopback_us_per_route", bulk.perRoute(lLoopback), "us")
	res.add("http.self_us_per_request", small.perReq(lLoopback)-small.perReq(lHandler), "us")
	res.add("server.shed_ratio", ld.shedRatio, "ratio")
	res.add("gateway.us_per_request", small.perReq(lGateway), "us")
	res.add("gateway.self_us_per_request", small.perReq(lGateway)-small.perReq(lLoopback), "us")
	res.add("gateway.backend_conns_per_1k_requests", ld.backendConns, "count")
	res.add("gateway.hedge_ratio", ld.hedgeRatio, "ratio")
	res.add("gateway.hedge_wasted_bytes_per_request", ld.hedgeWasted, "B")
	res.add("client.decode_us_per_route", bulk.perRoute(lSeg)-bulk.perRoute(lLoopback), "us")
	res.add("client.conns_per_1k_requests", ld.clientConns, "count")
	res.add("loadgen.late_p99_ms", ld.lateP99, "ms")
	res.add("trace.overhead_pct", 100*(bulk.perRoute(lLoopback)/rp.untracedUs-1), "%")

	fmt.Fprintf(out, "traced replay of %s seed %d, k=%d: %d bulk and %d small requests\n",
		name, seed, ws.KSample, bulk.requests[lCore], small.requests[lCore])
	for _, shape := range []struct {
		name string
		lt   layerTotals
	}{{"bulk", bulk}, {"small", small}} {
		printStages(out, shape.name, shape.lt)
		if msg := checkLayers(shape.lt, sp.LayerTol); msg != "" {
			fmt.Fprintf(out, "  LAYERING CHECK FAILED (%s): %s\n", shape.name, msg)
			res.fail("layers inverted on " + shape.name + " requests: " + msg)
		}
	}
	fmt.Fprintf(out, "  tracing overhead: traced loopback %.3f us/route against untraced %.3f us/route\n",
		bulk.perRoute(lLoopback), rp.untracedUs)
	fmt.Fprintf(out, "  load segment at %.0f/s: %d requests, %d failed\n", ws.Rates.High, ld.attempted, ld.failed)
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := rp.tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "  %d spans written to %s\n", len(rp.tr.spans), path)

	res.Attempted, res.Failed = rp.attempted+ld.attempted, rp.failed+ld.failed
	if res.Failed > 0 {
		res.fail("fail_ratio > 0")
	}
	return res, nil
}

type routerStats struct{ newMs, heapMB, hitRatio float64 }

// measureRouter times NewRouter, and takes the retained heap and the
// chain-cache hit ratio of one router warmed by a pass over the bulk
// batches. The hit ratio is that of the following requests, capped at
// one more pass or d; it is -1 when the router has no chain cache.
func measureRouter(in *inputs, ropts om.RouterOptions, d time.Duration) (routerStats, error) {
	var rs routerStats
	var newMs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := om.NewRouter(in.m, ropts); err != nil {
			return rs, err
		}
		newMs = append(newMs, float64(time.Since(t0))/1e6)
	}
	rs.newMs = median(newMs)
	live := om.NewLiveLoads(in.m, 0)
	before := liveHeap()
	r, err := om.NewRouter(in.m, ropts)
	if err != nil {
		return rs, err
	}
	for _, b := range in.bulk {
		om.SelectAllKSegTracked(r, b, live)
	}
	h0, m0, ok := cacheStats(r)
	end := time.Now().Add(d)
	for i := 0; i < len(in.bulk) && (i == 0 || time.Now().Before(end)); i++ {
		om.SelectAllKSegTracked(r, in.bulk[i], live)
	}
	h1, m1, _ := cacheStats(r)
	rs.heapMB = (liveHeap() - before) / 1e6
	runtime.KeepAlive(r)
	rs.hitRatio = -1
	if ok {
		rs.hitRatio = ratio(float64(h1-h0), float64((h1-h0)+(m1-m0)))
	}
	return rs, nil
}

type loadStats struct {
	attempted, failed                  int64
	shedRatio, hedgeRatio, hedgeWasted float64
	backendConns, clientConns, lateP99 float64
}

// loadSegment offers the workload's small batches at its high rate for
// d to a fresh cluster shaped like the end-to-end one, and reads the
// counters that only load moves: 429s at the daemons, hedges and their
// wasted bytes from the gateway's /metrics, connections accepted by the
// gateway and its backends per 1,000 requests, and the generator's
// lateness.
func loadSegment(sp *spec, ws workloadSpec, in *inputs, seed uint64, d time.Duration) (loadStats, error) {
	var ls loadStats
	ctx := context.Background()
	cl, err := startCluster(ctx, in.m, seed, ws.KSample, 0, sp.Backends)
	if err != nil {
		return ls, err
	}
	defer cl.close()
	gw := client(cl.gwNode.url)
	conns := min(sp.Connections, runtime.NumCPU())
	fs := make([]*fetcher, conns)
	for i := range fs {
		fs[i] = newFetcher(in, gw)
	}
	send := func(w, i int) (int, time.Time, error) {
		pairs, ref := in.smallBatch(i)
		err := fs[w].fetch(ctx, pairs, ref)
		return len(pairs), time.Now(), err
	}
	warm := openLoop(conns, ws.Rates.Low, 300*time.Millisecond, send)
	g0, err := scrape(ctx, gw)
	if err != nil {
		return ls, err
	}
	accepts := func() (gwn, backends int64) {
		for _, n := range cl.backends {
			backends += n.ln.accepts.Load()
		}
		return cl.gwNode.ln.accepts.Load(), backends
	}
	ga0, ba0 := accepts()
	p := openLoop(conns, ws.Rates.High, d, send)
	ga1, ba1 := accepts()
	g1, err := scrape(ctx, gw)
	if err != nil {
		return ls, err
	}
	delta := func(k string) float64 { return g1[k] - g0[k] }
	reqs := float64(p.attempted)
	ls.attempted, ls.failed = warm.attempted+p.attempted, warm.failed+p.failed
	ls.shedRatio = ratio(delta("meshgate_cluster_shed_total"), delta("meshgate_cluster_requests_total"))
	ls.hedgeRatio = ratio(delta("meshgate_hedges_total"), reqs)
	ls.hedgeWasted = ratio(delta("meshgate_hedge_wasted_bytes_total"), reqs)
	ls.backendConns = 1000 * ratio(float64(ba1-ba0), reqs)
	ls.clientConns = 1000 * ratio(float64(ga1-ga0), reqs)
	ls.lateP99 = quantile(p.late, 0.99)
	return ls, nil
}

type replayStats struct {
	tr                      *tracer
	attempted, failed       int64
	wireBytes               int
	coreAlloc, handlerAlloc float64
	untracedUs              float64
}

// replayLayers runs every layer on the workload's bulk batches for
// bulkD and on its small batches for smallD. Each layer has instances
// of its own, so each sees the cache state a daemon of the end-to-end
// run sees: daemon 0 serves the in-memory handler layer (it has a port
// too, which nothing calls), daemons 1 and 2 the raw loopback fetch
// (traced and untraced in turn), daemon 3 the decoding fetch, and a
// gateway over one backend of its own the gateway layer — one backend,
// so that a gateway call contains exactly one daemon's work and its
// self time is a subtraction.
func replayLayers(sp *spec, ws workloadSpec, in *inputs, name string, seed uint64, ropts om.RouterOptions, bulkD, smallD time.Duration) (*replayStats, error) {
	ctx := context.Background()
	m := in.m
	cl, err := startCluster(ctx, m, seed, ws.KSample, 4, 1)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	rp := &replayStats{tr: &tracer{workload: name, t0: time.Now()}}
	check := func(err error) {
		rp.attempted++
		if err != nil {
			rp.failed++
		}
	}
	handler := cl.daemons[0].Handler()
	raw := [2]*fetcher{newFetcher(in, client(cl.nodes[1].url)), newFetcher(in, client(cl.nodes[2].url))}
	segC := client(cl.nodes[3].url)
	gwF := newFetcher(in, client(cl.gwNode.url))
	coreR, err := om.NewRouter(m, ropts)
	if err != nil {
		return nil, err
	}
	coreLive := om.NewLiveLoads(m, 0)
	var wire bytes.Buffer
	w := &memWriter{}
	hasher := fnv.New64a()
	var untraced time.Duration
	untracedRoutes := 0

	replay := func(shape string, j int, pairs []mesh.Pair, ref uint64, rec bool) {
		n := len(pairs)
		t := rp.tr
		if !rec {
			t = &tracer{t0: rp.tr.t0}
		}
		var sps []mesh.SegPath
		check(t.timed(shape, lCore, j, n, func() error {
			sps, _ = om.SelectAllKSegTracked(coreR, pairs, coreLive)
			return nil
		}))
		check(validate(m, pairs, sps))
		wire.Reset()
		check(t.timed(shape, lEncode, j, n, func() error {
			enc, err := serial.AcquireWireSegEncoder(&wire, m, n)
			if err != nil {
				return err
			}
			defer enc.Release()
			for _, sp := range sps {
				if err := enc.Encode(sp); err != nil {
					return err
				}
			}
			return enc.Close()
		}))
		if rec && shape == "bulk" {
			rp.wireBytes += wire.Len()
		}
		check(t.timed(shape, lDecode, j, n, func() error {
			dec, err := serial.NewWireSegDecoder(bytes.NewReader(wire.Bytes()), m, n)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if _, err := dec.Next(); err != nil {
					return err
				}
			}
			return dec.Close()
		}))
		req := batchRequest(pairs)
		w.reset()
		check(t.timed(shape, lHandler, j, n, func() error {
			handler.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				return fmt.Errorf("handler answered %d", w.code)
			}
			return nil
		}))
		if in.k <= 1 {
			hasher.Reset()
			_, _, err := serial.CopyRawWireSeg(hasher, &w.body, m, n)
			if err == nil && hasher.Sum64() != ref {
				err = errMismatch
			}
			check(err)
		}
		// The traced and the untraced raw fetch and the decoding fetch go
		// to three daemons; which raw daemon is traced and the order of
		// the calls alternate, so no call profits from another having
		// just routed the batch or from running first.
		tracedRaw := func() {
			check(t.timed(shape, lLoopback, j, n, func() error { return raw[j%2].fetch(ctx, pairs, ref) }))
		}
		untracedRaw := func() {
			s := time.Now()
			check(raw[1-j%2].fetch(ctx, pairs, ref))
			if rec && shape == "bulk" {
				untraced += time.Since(s)
				untracedRoutes += n
			}
		}
		seg := func() {
			var got []mesh.SegPath
			check(t.timed(shape, lSeg, j, n, func() error {
				var err error
				got, err = segC.RouteBatchSeg(ctx, pairs)
				return err
			}))
			check(validate(m, pairs, got))
		}
		calls := []func(){tracedRaw, seg, untracedRaw}
		for k := range calls {
			calls[(k+j)%len(calls)]()
		}
		check(t.timed(shape, lGateway, j, n, func() error { return gwF.fetch(ctx, pairs, ref) }))
	}
	runShape := func(shape string, batch func(int) ([]mesh.Pair, uint64), warm int, d time.Duration) {
		for j := 0; j < warm; j++ {
			pairs, ref := batch(j)
			replay(shape, j, pairs, ref, false)
		}
		end := time.Now().Add(d)
		for j := warm; j < warm+2 || time.Now().Before(end); j++ {
			pairs, ref := batch(j)
			replay(shape, j, pairs, ref, true)
		}
	}
	runShape("bulk", in.bulkBatch, min(len(in.bulk), 4), bulkD)
	runShape("small", in.smallBatch, min(len(in.small), 64), smallD)
	rp.untracedUs = float64(untraced.Nanoseconds()) / 1e3 / float64(untracedRoutes)

	// Bytes allocated per call, outside the spans: ReadMemStats stops
	// the world.
	const allocCalls = 8
	a0, routes := totalAlloc(), 0
	for i := 0; i < allocCalls; i++ {
		b, _ := in.bulkBatch(i)
		om.SelectAllKSegTracked(coreR, b, coreLive)
		routes += len(b)
	}
	rp.coreAlloc = float64(totalAlloc()-a0) / float64(routes)
	reqs := make([]*http.Request, allocCalls)
	for i := range reqs {
		b, _ := in.bulkBatch(i)
		reqs[i] = batchRequest(b)
	}
	a0 = totalAlloc()
	for _, req := range reqs {
		w.reset()
		handler.ServeHTTP(w, req)
	}
	rp.handlerAlloc = float64(totalAlloc()-a0) / allocCalls
	return rp, nil
}

// ksampleCost is the k-sample scoring cost per route: a k=4 router
// minus a k=1 router on the same bulk batches, alternating so both see
// the same conditions, for d.
func ksampleCost(in *inputs, seed uint64, d time.Duration) (float64, error) {
	r1, err := om.NewRouter(in.m, om.RouterOptions{Seed: seed})
	if err != nil {
		return 0, err
	}
	r4, err := om.NewRouter(in.m, om.RouterOptions{Seed: seed, KSample: 4})
	if err != nil {
		return 0, err
	}
	l1, l4 := om.NewLiveLoads(in.m, 0), om.NewLiveLoads(in.m, 0)
	var t1, t4 time.Duration
	routes := 0
	end := time.Now().Add(d)
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		b := in.bulk[i%len(in.bulk)]
		s := time.Now()
		om.SelectAllKSegTracked(r1, b, l1)
		t1 += time.Since(s)
		s = time.Now()
		om.SelectAllKSegTracked(r4, b, l4)
		t4 += time.Since(s)
		routes += len(b)
	}
	return float64((t4 - t1).Nanoseconds()) / 1e3 / float64(routes), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printStages prints the stage → µs/route → % table of one request
// shape: the self time of each stacked layer as a share of the
// gateway's end-to-end time, then the side layers.
func printStages(out io.Writer, shape string, lt layerTotals) {
	top := lt.perRoute(lGateway)
	fmt.Fprintf(out, "  %s requests: stage → us/route → %% of end-to-end (gateway)\n", shape)
	row := func(stage string, us float64) {
		fmt.Fprintf(out, "    %-34s %10.3f %7.1f%%\n", stage, us, 100*us/top)
	}
	prev := 0.0
	for _, l := range stack {
		self := lt.perRoute(l) - prev
		row(l+" (self)", self)
		prev = lt.perRoute(l)
	}
	row("end to end", top)
	row("serial.encode (inside handler)", lt.perRoute(lEncode))
	row("serial.decode (client side)", lt.perRoute(lDecode))
	row("client decode (seg − raw fetch)", lt.perRoute(lSeg)-lt.perRoute(lLoopback))
}

// checkLayers verifies core ≤ handler ≤ loopback ≤ gateway per route,
// each within the tolerance; it returns a description of the first
// inversion, or "".
func checkLayers(lt layerTotals, tol float64) string {
	for i := 1; i < len(stack); i++ {
		lo, hi := lt.perRoute(stack[i-1]), lt.perRoute(stack[i])
		if lo > hi*(1+tol) {
			return fmt.Sprintf("%s %.3f us/route > %s %.3f us/route", stack[i-1], lo, stack[i], hi)
		}
	}
	return ""
}
