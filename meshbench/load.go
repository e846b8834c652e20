package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phase is what one load phase measured. Latencies and lateness are in
// milliseconds; a failed or wrong response has latency +Inf, so it
// misses every latency limit.
type phase struct {
	lat, late []float64
	attempted int64
	failed    int64
	routes    int64 // verified routes
	elapsed   time.Duration
}

// merge adds the samples and counts of q to p.
func (p *phase) merge(q *phase) {
	p.lat, p.late = append(p.lat, q.lat...), append(p.late, q.late...)
	p.attempted, p.failed = p.attempted+q.attempted, p.failed+q.failed
	p.routes, p.elapsed = p.routes+q.routes, p.elapsed+q.elapsed
}

// sendFunc sends request i from worker w and returns the number of
// verified routes and the time the response was complete, or an error
// for a failed, refused or wrong response.
type sendFunc func(w, i int) (routes int, done time.Time, err error)

// sample is one request's record inside a worker.
type sample struct {
	i         int
	lat, late float64
	routes    int
	failed    bool
}

// runWorkers runs workers goroutines of body, merges their samples in
// request order and returns once every worker has finished.
func runWorkers(workers int, body func(w int, rec func(sample))) *phase {
	per := make([][]sample, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w, func(s sample) { per[w] = append(per[w], s) })
		}(w)
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(start)}
	var all []sample
	for _, ss := range per {
		all = append(all, ss...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	for _, s := range all {
		p.attempted++
		p.lat = append(p.lat, s.lat)
		p.late = append(p.late, s.late)
		if s.failed {
			p.failed++
		} else {
			p.routes += int64(s.routes)
		}
	}
	return p
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// record turns one send into a sample: latency from due to done,
// lateness from due to the actual send.
func record(send sendFunc, w, i int, due time.Time, rec func(sample)) {
	sent := time.Now()
	routes, done, err := send(w, i)
	s := sample{i: i, lat: ms(done.Sub(due)), late: ms(sent.Sub(due)), routes: routes}
	if err != nil {
		s.lat, s.failed = math.Inf(1), true
	}
	rec(s)
}

// closedLoop runs `workers` clients that each send their next request
// as soon as the previous one completed, until dur has passed and at
// least minReqs requests were sent. A request is due when its worker's
// previous one completed, so lateness is the generator's own overhead.
func closedLoop(workers int, dur time.Duration, minReqs int, send sendFunc) *phase {
	var next atomic.Int64
	end := time.Now().Add(dur)
	return runWorkers(workers, func(w int, rec func(sample)) {
		due := time.Now()
		for {
			i := int(next.Add(1) - 1)
			if i >= minReqs && time.Now().After(end) {
				return
			}
			record(send, w, i, due, rec)
			due = time.Now()
		}
	})
}

// openLoop offers rate requests per second for dur on a fixed
// schedule — request i is due at start + i/rate — from `workers`
// clients. Latency is timed from the due time, so a stall charges
// every request that fell due during it, not only the one that hit it
// (no coordinated omission). Every scheduled request is sent however
// late, so a backlog shows as latency; only past 3·dur does the phase
// give up, recording the unsent rest as missed.
func openLoop(workers int, rate float64, dur time.Duration, send sendFunc) *phase {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	interval := float64(time.Second) / rate
	start := time.Now()
	giveUp := start.Add(3 * dur)
	var next atomic.Int64
	var missed atomic.Int64
	p := runWorkers(workers, func(w int, rec func(sample)) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if time.Now().After(giveUp) {
				missed.Add(1)
				continue
			}
			due := start.Add(time.Duration(float64(i) * interval))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			record(send, w, i, due, rec)
		}
	})
	for k := missed.Load(); k > 0; k-- {
		p.lat = append(p.lat, math.Inf(1))
	}
	return p
}

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// knee is the highest offered rate whose p99 meets limit. p99 cannot
// fall as the offered rate rises, so the measured p99s are first
// replaced by their closest non-decreasing fit (in log space), which
// keeps one noisy rung from moving the knee by a whole ladder step;
// the knee is then where that fit crosses the limit, interpolated
// between the last rung under it and the first over it. A backlog that
// grows during a rung raises its p99 (latency is timed from the due
// time), so such a rung counts as over the limit too. When even the
// lowest rung is over, the lowest rate is scaled down by limit/p99.
func knee(rates, p99 []float64, limit float64) float64 {
	logs := make([]float64, len(p99))
	for i, v := range p99 {
		logs[i] = math.Log(math.Min(math.Max(v, 1e-6), 1e9))
	}
	fit := isotonic(logs)
	lim := math.Log(limit)
	for i, l := range fit {
		if l <= lim {
			continue
		}
		if i == 0 {
			return rates[0] * math.Exp(lim-l)
		}
		f := (lim - fit[i-1]) / (l - fit[i-1])
		return rates[i-1] + f*(rates[i]-rates[i-1])
	}
	return rates[len(rates)-1]
}

// isotonic is the non-decreasing least-squares fit of ys (pool adjacent
// violators).
func isotonic(ys []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var bs []block
	for _, y := range ys {
		bs = append(bs, block{y, 1})
		for k := len(bs); k > 1 && bs[k-2].sum/float64(bs[k-2].n) > bs[k-1].sum/float64(bs[k-1].n); k = len(bs) {
			bs = append(bs[:k-2], block{bs[k-2].sum + bs[k-1].sum, bs[k-2].n + bs[k-1].n})
		}
	}
	var out []float64
	for _, b := range bs {
		for i := 0; i < b.n; i++ {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}
