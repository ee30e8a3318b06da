// Command benchdiff guards against benchmark regressions: it re-runs the
// benchmark command recorded in BENCH_engine.json (or parses a
// pre-captured output file), compares every tracked benchmark's ns/op
// against the recorded baseline, and exits nonzero when any regresses
// beyond the threshold.
//
// Usage:
//
//	benchdiff [-baseline BENCH_engine.json] [-input bench.out] [-threshold 0.15]
//	          [-only REGEX] [-command CMD] [-best] [-allocs]
//
// With -input the tool only parses (useful in CI, where the run and the
// comparison are separate steps); otherwise it executes the baseline's
// recorded command — or the -command override — via the shell. -only
// restricts the comparison to baseline benchmarks matching the regex, so
// a focused gate (e.g. the telemetry-overhead job holding just
// BenchmarkEngineStep to 5%) does not warn about every other benchmark.
// Benchmarks present in the baseline but missing from the output are
// reported as warnings, not failures, so a partial -bench filter does
// not trip the guard. Hardware varies between the recording machine and
// CI runners — wire this as an informational job there and treat it as
// authoritative only on the recording hardware.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// baselineFile mirrors the parts of BENCH_engine.json the guard needs.
type baselineFile struct {
	Command     string                `json:"command"`
	Environment baselineEnv           `json:"environment"`
	Benchmarks  map[string]benchEntry `json:"benchmarks"`
}

// baselineEnv is the recorded hardware context. Printed next to the
// current host's shape so a cross-hardware comparison announces itself
// instead of masquerading as a code regression.
type baselineEnv struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type benchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchSample is one parsed benchmark result line. Allocs are present
// only when the benchmark reported them (b.ReportAllocs or -benchmem).
type benchSample struct {
	NsPerOp   float64
	Allocs    int64
	HasAllocs bool
}

// benchLine matches one `go test -bench` result line, stripping the
// -GOMAXPROCS suffix go appends to benchmark names (Benchmark-8 etc.),
// and capturing allocs/op when the line carries it.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s(\d+) allocs/op)?`)

// parseBenchOutput extracts name → sample from `go test -bench` output.
// Later occurrences of the same benchmark (e.g. -count > 1) overwrite
// earlier ones; with best, the fastest occurrence wins instead — the
// standard noise-robust reduction for a tight gate on shared hardware.
func parseBenchOutput(r io.Reader, best bool) (map[string]benchSample, error) {
	out := make(map[string]benchSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchdiff: bad ns/op %q for %s: %w", m[2], m[1], err)
		}
		s := benchSample{NsPerOp: ns}
		if m[3] != "" {
			allocs, err := strconv.ParseInt(m[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: bad allocs/op %q for %s: %w", m[3], m[1], err)
			}
			s.Allocs, s.HasAllocs = allocs, true
		}
		if prev, ok := out[m[1]]; best && ok && prev.NsPerOp < ns {
			continue
		}
		out[m[1]] = s
	}
	return out, sc.Err()
}

// filterBaseline drops baseline benchmarks not matching the -only regex
// (in place). An empty pattern keeps everything; a pattern matching
// nothing is an error, since the gate would silently pass.
func filterBaseline(benchmarks map[string]benchEntry, pattern string) error {
	if pattern == "" {
		return nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return fmt.Errorf("benchdiff: bad -only regex: %w", err)
	}
	for name := range benchmarks {
		if !re.MatchString(name) {
			delete(benchmarks, name)
		}
	}
	if len(benchmarks) == 0 {
		return fmt.Errorf("benchdiff: -only %q matches no baseline benchmark", pattern)
	}
	return nil
}

// diffResult is one baseline benchmark's comparison outcome.
type diffResult struct {
	Name               string
	Baseline, Current  float64 // ns/op; Current is 0 when Missing
	Missing, Regressed bool
	// Alloc gate outcome (-allocs): allocations are deterministic, so
	// any count above baseline fails; AllocsUnknown warns when the gate
	// is on but the output line carried no allocs/op.
	BaselineAllocs, CurrentAllocs int64
	AllocRegressed, AllocsUnknown bool
}

// compare evaluates every baseline benchmark against the current run.
// A benchmark regresses when its ns/op exceeds baseline·(1+threshold)
// or — with allocsGate, for baselines that record allocs_per_op — when
// its allocs/op exceeds the recorded count at all. Results come back
// sorted by name for stable output.
func compare(baseline map[string]benchEntry, current map[string]benchSample, threshold float64, allocsGate bool) []diffResult {
	results := make([]diffResult, 0, len(baseline))
	for name, b := range baseline {
		r := diffResult{Name: name, Baseline: b.NsPerOp, BaselineAllocs: b.AllocsPerOp}
		if cur, ok := current[name]; ok {
			r.Current = cur.NsPerOp
			r.Regressed = cur.NsPerOp > b.NsPerOp*(1+threshold)
			if allocsGate && b.AllocsPerOp > 0 {
				if cur.HasAllocs {
					r.CurrentAllocs = cur.Allocs
					r.AllocRegressed = cur.Allocs > b.AllocsPerOp
				} else {
					r.AllocsUnknown = true
				}
			}
		} else {
			r.Missing = true
		}
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	return results
}

// printEnvironment contrasts the baseline's recorded hardware shape
// with the current host. ns/op deltas between machines of different
// core counts (or a 1-CPU recording container vs a multi-core runner)
// mix hardware and code; the header makes that visible in every gate
// log. Zero-valued baseline fields (pre-metadata records) are shown
// as "?" rather than omitted, so stale baselines are also visible.
func printEnvironment(w io.Writer, env baselineEnv) {
	baseCPU := env.CPU
	if baseCPU == "" {
		baseCPU = "?"
	}
	orQ := func(v int) string {
		if v == 0 {
			return "?"
		}
		return strconv.Itoa(v)
	}
	fmt.Fprintf(w, "baseline: %s, numcpu %s, gomaxprocs %s\n", baseCPU, orQ(env.NumCPU), orQ(env.GOMAXPROCS))
	fmt.Fprintf(w, "current:  numcpu %d, gomaxprocs %d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

func run() error {
	baselinePath := flag.String("baseline", "BENCH_engine.json", "baseline file with recorded command and benchmarks")
	input := flag.String("input", "", "pre-captured `go test -bench` output to parse instead of running the command")
	threshold := flag.Float64("threshold", 0.15, "allowed ns/op regression fraction before failing")
	only := flag.String("only", "", "regex restricting the comparison to matching baseline benchmarks")
	command := flag.String("command", "", "shell command to run instead of the baseline's recorded one")
	best := flag.Bool("best", false, "with repeated runs (-count > 1), compare the fastest occurrence of each benchmark instead of the last")
	allocs := flag.Bool("allocs", false, "also gate allocs/op: any count above the baseline's allocs_per_op fails (allocations are deterministic — no threshold)")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("benchdiff: parse %s: %w", *baselinePath, err)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("benchdiff: %s has no benchmarks", *baselinePath)
	}
	if err := filterBaseline(base.Benchmarks, *only); err != nil {
		return err
	}
	printEnvironment(os.Stdout, base.Environment)

	var benchOut io.Reader
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		benchOut = f
	} else {
		shellCmd := base.Command
		if *command != "" {
			shellCmd = *command
		}
		if shellCmd == "" {
			return fmt.Errorf("benchdiff: %s records no command; pass -input or -command", *baselinePath)
		}
		fmt.Fprintf(os.Stderr, "benchdiff: running %s\n", shellCmd)
		cmd := exec.Command("sh", "-c", shellCmd)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("benchdiff: benchmark command failed: %w", err)
		}
		benchOut = strings.NewReader(string(out))
	}

	current, err := parseBenchOutput(benchOut, *best)
	if err != nil {
		return err
	}
	if len(current) == 0 {
		return fmt.Errorf("benchdiff: no benchmark lines in output")
	}

	failed := false
	for _, r := range compare(base.Benchmarks, current, *threshold, *allocs) {
		switch {
		case r.Missing:
			fmt.Printf("WARN  %-55s baseline %9.0f ns/op, not in output\n", r.Name, r.Baseline)
		case r.Regressed:
			failed = true
			fmt.Printf("FAIL  %-55s %9.0f -> %9.0f ns/op (%+.1f%%, limit +%.0f%%)\n",
				r.Name, r.Baseline, r.Current, 100*(r.Current/r.Baseline-1), 100**threshold)
		default:
			fmt.Printf("ok    %-55s %9.0f -> %9.0f ns/op (%+.1f%%)\n",
				r.Name, r.Baseline, r.Current, 100*(r.Current/r.Baseline-1))
		}
		switch {
		case r.AllocRegressed:
			failed = true
			fmt.Printf("FAIL  %-55s %9d -> %9d allocs/op (allocations must not grow)\n",
				r.Name, r.BaselineAllocs, r.CurrentAllocs)
		case r.AllocsUnknown:
			fmt.Printf("WARN  %-55s baseline %9d allocs/op, none in output (benchmark not reporting allocs?)\n",
				r.Name, r.BaselineAllocs)
		case *allocs && r.BaselineAllocs > 0 && !r.Missing:
			fmt.Printf("ok    %-55s %9d -> %9d allocs/op\n", r.Name, r.BaselineAllocs, r.CurrentAllocs)
		}
	}
	if failed {
		return fmt.Errorf("benchdiff: regression beyond %.0f%%", 100**threshold)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
