// Command bench is the repository's one benchmark: four workloads, five
// end-to-end metrics measured untraced, and a per-layer ledger measured
// from outside in a separate traced run. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	sh bench/run.sh -workload fleet_durable -seed 42 -seconds 20 -trace 0
//	sh bench/run.sh -workload fleet_durable -trace 1   # per-layer ledger + out/fleet_durable.spans.json
//	sh bench/run.sh -selfcheck 10                      # is the ruler steady on this machine?
//
// run.sh is `go run -C bench roboads/bench` with the Go build cache kept
// under bench/out/.
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// The exit status is 0 when the run measured and its outputs were correct,
// 2 when it measured and they were not (the result line is still printed,
// with "correct": false), and 1 when the harness could not measure; `go
// run` turns both into 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// sizes are the knobs the smoke test shrinks; production runs use
// fullSizes unchanged.
type sizes struct {
	trials     int // detect_replay: trials of the scenario suite pre-generated
	scenarios  int // detect_replay: leading scenarios of the suite used; 0 = all 26
	warmFrames int // serve_*: warm-up frames per session
	warmRounds int // fleet_durable: warm-up rounds
	setups     int // serve_*, fleet_durable: set-ups per run; setup_s is their median
	recoveries int // serve_durable, fleet_durable: recoveries per run; store.recover_ms is their median
	tail       int // frames per session a recovery replays on top of its snapshot
	probeIters int // direct-call probes: calls timed per layer
}

var fullSizes = sizes{
	trials: 1, warmFrames: 4096, warmRounds: 64,
	setups: 3, recoveries: 10, probeIters: 2048,
	tail: 255, // the longest WAL tail under the default snapshot cadence of 256
}

// env is what one invocation hands its workload.
type env struct {
	workload string
	seed     int64
	phase    time.Duration
	tr       *tracer // nil in an untraced run
	root     string  // repository root
	out      string  // scratch and results directory (bench/out)
	sizes    sizes
}

// segments is the number of whole segments in the timed phase.
func (e *env) segments() int { return int(e.phase / segment) }

// clients is the number of driver goroutines and connections of the
// serve_* workloads: half of min(nproc, 4), at least one. The server gets
// a core per session and the load generator gets the rest; with a client
// per core the two saturate the sandbox and nothing repeats, and two
// lockstep sessions sharing the commit window lock into one of two phases
// (batch p50 4.5 ms or 7.8 ms) for a whole run.
func clients() int { return max(1, min(runtime.NumCPU(), 4)/2) }

// measurement is what a workload hands back.
type measurement struct {
	setups []float64 // seconds, one per set-up; setup_s is their median
	// stats are the timed phase's numbers as the workload reports them
	// end to end; wall are the same phase on the wall clock, every op and
	// segment as measured, for the bench.wall_* rows of the ledger.
	stats, wall phaseStats
	attempted   int
	failed      int
	peakRSSMB   float64
	clients     int
	layer       map[string]float64 // what the workload itself knows of perLayer
	// wrong lists every correctness check the program's outputs failed;
	// the run still reports its metrics, with "correct": false.
	wrong []string
}

// check records a failed correctness check. A broken program fails the
// same check on every replay; the first few say it all.
func (m *measurement) check(err error) {
	if err != nil && len(m.wrong) < 8 {
		m.wrong = append(m.wrong, err.Error())
	}
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "one of detect_replay, serve_volatile, serve_durable, fleet_durable")
	seed := flag.Int64("seed", 42, "seed of every generated input")
	seconds := flag.Int("seconds", 20, "length of the timed phase, in whole one-second segments")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes out/<workload>.spans.json")
	selfcheck := flag.Int("selfcheck", 0, "run two interleaved sets of N runs per workload and compare them against the bounds in BENCHMARK.json")
	flag.Parse()

	// run.sh's `go run -C bench` and `go test` both start in this directory;
	// the repository is its parent.
	root, err := filepath.Abs("..")
	if err == nil {
		_, err = os.Stat(filepath.Join(root, "go.mod"))
	}
	if err != nil {
		fatal(fmt.Errorf("bench must run from the bench directory of the repository (sh bench/run.sh): %w", err))
	}
	if *selfcheck > 0 {
		if err := selfCheck(root, *selfcheck, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	e := &env{
		workload: *workload, seed: *seed, phase: time.Duration(*seconds) * segment,
		root: root, out: filepath.Join(root, "bench", "out"), sizes: fullSizes,
	}
	if *trace != 0 {
		e.tr = newTracer()
	}
	res, err := run(e)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// run executes one workload and reduces it to the metrics of the run's
// kind: end-to-end when untraced, per-layer when traced. An error means the
// harness could not measure; outputs that fail a correctness check come
// back as a result with Correct false.
func run(e *env) (*result, error) {
	var drive func(*env) (*measurement, error)
	switch e.workload {
	case "detect_replay":
		drive = runDetectReplay
	case "serve_volatile", "serve_durable":
		drive = runServe
	case "fleet_durable":
		drive = runFleetDurable
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", e.workload, workloads)
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	m, err := drive(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.workload, err)
	}
	st := m.stats
	res := &result{Correct: len(m.wrong) == 0 && m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, w := range m.wrong {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", w)
	}
	fmt.Printf("%s  seed=%d  phase=%s in %d segments  clients=%d  ops=%d  nproc=%d\n",
		e.workload, e.seed, e.phase, st.segments, m.clients, st.ops, runtime.NumCPU())

	values := m.layer
	values["bench.wall_frames_per_s"] = m.wall.framesPerS
	values["bench.wall_latency_p50_ms"] = m.wall.p50Ms
	values["bench.wall_latency_p95_ms"] = m.wall.p95Ms
	values["bench.machine_speed"] = m.wall.speed
	if e.tr == nil {
		report(res, endToEnd, map[string]float64{
			"setup_s":        median(m.setups),
			"frames_per_s":   st.framesPerS,
			"latency_p50_ms": st.p50Ms,
			"latency_p95_ms": st.p95Ms,
			"peak_rss_mb":    m.peakRSSMB,
		})
		// The per-layer rows an untraced run knows anyway — what only this
		// workload measures, and the phase on the wall clock — are printed
		// too, so that no run hides them; the result line has them in a
		// traced run.
		for _, d := range perLayer {
			if v, ok := values[d.name]; ok {
				fmt.Printf("  %-34s %14.4f %s (per-layer)\n", d.name, v, d.unit)
			}
		}
		return res, nil
	}

	if err := probeLayers(e, values); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	untraced, traced := splitByParity(m.wall.rates)
	if u := median(untraced); u > 0 {
		values["bench.trace_overhead_pct"] = 100 * (1 - median(traced)/u)
	}
	values["bench.latency_tail_ms"] = m.wall.tailMs
	values["bench.frames_per_s_mean"] = m.wall.framesPerSMean
	values["bench.segment_iqr_pct"] = m.wall.segmentIQRPct
	report(res, perLayer, values)
	fmt.Printf("bench.latency_tail_ms is p%g of %d ops\n", m.wall.tailPct, m.wall.ops)
	path := filepath.Join(e.out, e.workload+".spans.json")
	if err := e.tr.write(path, e.workload); err != nil {
		return nil, err
	}
	fmt.Println("spans written to", path)
	return res, nil
}

// report copies the declared metrics into the result and prints the table.
// A per-layer metric the workload has nothing to say about is 0: the
// workload bypasses that layer.
func report(res *result, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v := values[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-34s %14.4f %s\n", d.name, v, d.unit)
	}
	fmt.Printf("  ops attempted %d, failed %d\n", res.Attempted, res.Failed)
}

// splitByParity separates the per-segment rates of a traced run: spans are
// off in even segments and on in odd ones, so the two halves compare the
// same process at the same moment with and without harness tracing.
func splitByParity(rates []float64) (even, odd []float64) {
	for i, r := range rates {
		if i%2 == 0 {
			even = append(even, r)
		} else {
			odd = append(odd, r)
		}
	}
	return even, odd
}

// toggleTracing switches the tracer on for the odd segments of the phase
// that begins at start. The returned stop ends the toggling and leaves the
// tracer off; it is a no-op for an untraced run.
func toggleTracing(tr *tracer, start time.Time, phase time.Duration) (stop func()) {
	if tr == nil {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; time.Duration(i)*segment < phase; i++ {
			select {
			case <-quit:
				return
			case <-time.After(time.Until(start.Add(time.Duration(i) * segment))):
				tr.set(i%2 == 1)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		tr.set(false)
	}
}
