package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// lastResult decodes the JSON result line a run printed last.
func lastResult(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout)
	}
	return r
}

// A cluster whose servers route with another seed serves valid paths
// with the wrong bytes. Every response must count as failed and the
// command must exit nonzero, while the same run with the right seed
// passes.
func TestWrongSeedFailsEveryResponse(t *testing.T) {
	args := []string{"--workload", "hot-gw", "--seed", "3", "--seconds", "1", "--trace", "0"}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb, faults{}); code != 0 {
		t.Fatalf("healthy cluster: exit %d\n%s%s", code, out.String(), errb.String())
	}
	if r := lastResult(t, out.String()); !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("healthy cluster: correct=%v failed %d of %d", r.Correct, r.Failed, r.Attempted)
	}

	out.Reset()
	errb.Reset()
	if code := run(args, &out, &errb, faults{seedSkew: 1}); code == 0 {
		t.Fatalf("reseeded cluster: exit 0\n%s", out.String())
	}
	r := lastResult(t, out.String())
	if r.Correct || r.Attempted == 0 || r.Failed != r.Attempted {
		t.Fatalf("reseeded cluster: correct=%v failed %d of %d, want fail_ratio 1", r.Correct, r.Failed, r.Attempted)
	}
}

// A handler that stalls must charge the stall to every request that
// fell due during it, not only to the requests in flight when it
// began, and the generator must report how late it ran.
func TestOpenLoopChargesStallToDueRequests(t *testing.T) {
	const (
		rate  = 200.0
		stall = 300 * time.Millisecond
		at    = 500 * time.Millisecond
	)
	t0 := time.Now()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if since := time.Since(t0); since >= at && since < at+stall {
			time.Sleep(at + stall - since)
		}
	}))
	defer ts.Close()
	p := openLoop(2, rate, 1500*time.Millisecond, func(w, i int) (int, time.Time, error) {
		resp, err := http.Get(ts.URL)
		if err == nil {
			resp.Body.Close()
		}
		return 1, time.Now(), err
	})
	if p.failed != 0 {
		t.Fatalf("%d requests failed", p.failed)
	}
	// Requests due in the middle of the stall waited about half of it.
	lo, hi := int((at+stall/4).Seconds()*rate), int((at+3*stall/4).Seconds()*rate)
	if got := median(p.lat[lo:hi]); got < ms(stall/4) {
		t.Errorf("median latency of requests due during the stall = %.1f ms, want ≥ %.1f ms", got, ms(stall/4))
	}
	if got := quantile(p.lat, 0.99); got < ms(stall/2) {
		t.Errorf("p99 latency = %.1f ms, want ≥ %.1f ms", got, ms(stall/2))
	}
	if got := quantile(p.late, 0.99); got < ms(stall/4) {
		t.Errorf("late p99 = %.1f ms, want ≥ %.1f ms: the generator must report the lag", got, ms(stall/4))
	}
	// Outside the stall the system is fast, so the figures above come
	// from the stall alone.
	if got := median(p.lat[:int(at.Seconds()*rate)/2]); got > 50 {
		t.Errorf("median latency before the stall = %.1f ms, want a fast baseline", got)
	}
}

// The knee follows the non-decreasing fit of p99 over the ladder, so a
// rung that happens to beat its lower neighbour cannot move it a whole
// step.
func TestKneeFitsNonDecreasingP99(t *testing.T) {
	rates := []float64{100, 200, 300, 400}
	if got := knee(rates, []float64{1, 2, 4, 8}, 100); got != 400 {
		t.Errorf("all under the limit: knee %v, want the top rate 400", got)
	}
	if got := knee(rates, []float64{10, 10, 1000, 1000}, 100); got != 250 {
		t.Errorf("crossing between rungs: knee %v, want 250", got)
	}
	noisy := knee(rates, []float64{10, 2000, 10, 2000}, 100)
	if noisy >= 300 || noisy <= 100 {
		t.Errorf("one noisy rung: knee %v, want between 100 and 300", noisy)
	}
	if got := knee(rates, []float64{200, 400, 800, 1600}, 100); math.Abs(got-50) > 1e-9 {
		t.Errorf("lowest rung over the limit: knee %v, want 50", got)
	}
}
