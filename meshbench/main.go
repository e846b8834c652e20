// Command meshbench is the repository's benchmark: one command that
// starts in-process meshrouted and meshgate servers on a 2-D mesh of
// side 256, drives them over loopback, verifies every response, and
// prints the end-to-end metrics of one workload — or, with --trace 1,
// replays the workload's batches layer by layer and prints the
// per-layer metrics.
//
// Usage (from the repository root):
//
//	bash meshbench/run.sh --workload perm-bulk --seed 1 --seconds 30 --trace 0
//
// The workloads, their offered rates, the knee latency limit and the
// end-to-end metric each per-layer metric should move live in
// spec.json, which is compiled into the binary. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// The command exits nonzero when any response was wrong, failed or
// refused, or when the traced layers invert.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

//go:embed spec.json
var specJSON []byte

// spec is the fixed definition of the benchmark (spec.json).
type spec struct {
	Side         int     `json:"side"`
	BulkBatch    int     `json:"bulk_batch"`
	SmallBatch   int     `json:"small_batch"`
	HotPairs     int     `json:"hot_pairs"`
	Connections  int     `json:"connections"`
	Backends     int     `json:"backends"`
	SetupRepeats int     `json:"setup_repeats"`
	BulkShare    float64 `json:"bulk_share"`  // share of --seconds for the closed-loop phase
	Slices       int     `json:"slices"`      // bulk slices, each followed by a low-rate window
	PointShare   float64 `json:"point_share"` // share of the open-loop time for the low windows together, and for the high rung
	KneeLimitMs  float64 `json:"knee_p99_limit_ms"`
	LayerTol     float64 `json:"layer_tolerance"`

	Workloads map[string]workloadSpec `json:"workloads"`
	// spec.json's per_layer section records, for the reader, the
	// end-to-end metric and workload each per-layer metric should move.
}

// workloadSpec is one workload: where its pairs come from, the k its
// daemons sample with, and the offered rates of its open-loop phase.
type workloadSpec struct {
	Pairs   string `json:"pairs"` // "permutation" or "hot"
	KSample int    `json:"ksample"`
	Rates   struct {
		Low    float64   `json:"low"`
		High   float64   `json:"high"`
		Ladder []float64 `json:"ladder"`
	} `json:"rates"`
}

func loadSpec() (*spec, error) {
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	for name, ws := range sp.Workloads {
		lad := ws.Rates.Ladder
		if !sort.Float64sAreSorted(lad) || !contains(lad, ws.Rates.Low) || !contains(lad, ws.Rates.High) {
			return nil, fmt.Errorf("spec.json: workload %s: ladder must be ascending and hold the low and high rates", name)
		}
	}
	return &sp, nil
}

func contains(xs []float64, x float64) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// faults breaks the system under test on purpose, so the self-tests
// can prove that the benchmark's checks fire.
type faults struct {
	// seedSkew is added to the seed every server routes with, while the
	// reference router keeps the workload seed: every k=1 response then
	// carries valid paths with the wrong bytes.
	seedSkew uint64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, faults{}))
}

// run is the testable body of the command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer, f faults) int {
	fs := flag.NewFlagSet("meshbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name from spec.json")
	seed := fs.Uint64("seed", 1, "workload seed: pairs and routing randomness derive from it")
	seconds := fs.Float64("seconds", 30, "measured time of the run")
	trace := fs.Int("trace", 0, "1 replays the workload layer by layer and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "meshbench: %v\n", err)
		return 2
	}
	ws, ok := sp.Workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "meshbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n",
			strings.Join(workloadNames(sp), ", "))
		return 2
	}
	var res *result
	if *trace == 1 {
		res, err = runTraced(sp, ws, *name, *seed, *seconds, stdout)
	} else {
		res, err = runEndToEnd(sp, ws, *name, *seed, *seconds, f, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "meshbench: %s: %v\n", *name, err)
		return 1
	}
	res.print(stdout)
	if !res.Correct {
		fmt.Fprintf(stderr, "meshbench: %s: %d of %d responses failed or were wrong%s\n",
			*name, res.Failed, res.Attempted, res.why)
		return 1
	}
	return 0
}

func workloadNames(sp *spec) []string {
	var names []string
	for n := range sp.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line, plus the report order of its metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string
	notes []string // report-only lines, not in the JSON
	why   string   // extra failure explanation for stderr
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// A failed request misses every limit; JSON has no infinity, so
		// a latency that only failures reach prints as a huge finite one.
		v = 1e9
	}
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// note reports a figure in the text report only. It is for figures
// whose run-to-run spread is wider than any regression bound the
// benchmark could hold them to.
func (r *result) note(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("  %-40s %14.6g %s (report only)", name, v, unit))
}

// fail marks the run wrong with a reason printed on stderr.
func (r *result) fail(reason string) {
	r.Correct = false
	r.why += "; " + reason
}

func (r *result) print(w io.Writer) {
	fmt.Fprintln(w, "metrics:")
	for _, n := range r.order {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	blob, err := json.Marshal(r)
	if err != nil {
		// Unreachable: every value is finite by construction.
		panic(err)
	}
	fmt.Fprintln(w, string(blob))
}

var errMismatch = errors.New("response differs from the reference")
