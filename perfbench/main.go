// Command perfbench is the repository benchmark. It drives the
// simulation engine (sim.Compile, Runner.RunTrial) and the placement
// service (serve.NewServer over loopback HTTP) through their public entry
// points on one of four workloads, checks every answer, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics, as the
// last line of its output:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {"trial_ms_p50": {"value": 6.71, "unit": "ms"}, …}}
//
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of the output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs one workload and prints its report to stdout.
// It returns the process exit code: 0 only when every check passed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-static, paper-dynamic, wide-p2 or serve-http")
	seed := fs.Uint64("seed", 1, "workload seed: the root seed of the world and its request streams")
	seconds := fs.Float64("seconds", 10, "measuring window in seconds (set-up excluded)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	root := fs.String("root", ".", "repository root, hashed into the host facts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookup(*name, false)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper-static, paper-dynamic, wide-p2, serve-http), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	return runWorkload(wl, *seed, window, *trace == 1, *root, stdout, stderr)
}

// runWorkload measures wl and prints its report, returning the exit code.
func runWorkload(wl workload, seed uint64, window time.Duration, traced bool, root string, stdout, stderr io.Writer) int {
	if !traced {
		// The untraced run does one thing at a time: one sequential trial
		// or one batch in flight. With a second P the scheduler's idle
		// threads spin and hand work across vCPUs, and the CPU time that
		// burns depended on whether the other vCPU was busy: a batch read
		// 30% cheaper while another process kept it busy. The traced run
		// keeps every P, for its two-worker twin and open loop.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  window %gs  traced %v\n", wl.name, seed, window.Seconds(), traced)
	fmt.Fprintf(stdout, "host %s\n", hostFacts(root, seed))
	if _, err := readCPU(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	steal := startSteal()
	var (
		m   map[string]metric
		tl  *tally
		err error
	)
	if traced {
		m, tl, err = runTraced(wl, seed, window, stdout)
	} else {
		m, tl, err = runUntraced(wl, seed, window, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	fmt.Fprintf(stdout, "cpu time stolen by the hypervisor during the run: %s\n", steal)
	printMetrics(stdout, m)
	fmt.Fprintf(stdout, "operations: %d attempted, %d failed\n", tl.attempted, tl.failed)
	for _, s := range tl.samples {
		fmt.Fprintln(stdout, "  failed:", s)
	}
	line, err := json.Marshal(report{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if tl.failed > 0 {
		return 1
	}
	return 0
}

// printMetrics lists the metrics by name with their units.
func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "  %-26s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprint(w, b.String())
}

// quantile returns the q-quantile of xs by nearest rank, 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quantileDur is quantile over durations.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

func durationMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func msSince(t time.Time) float64 { return durationMS(time.Since(t)) }

// sum adds xs up.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
