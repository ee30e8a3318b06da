package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// manifest is the part of BENCHMARK.json the self-check reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &mf, nil
}

// runSelf runs one untraced workload in a fresh process of this binary and
// parses the result line.
func runSelf(workload string, seed int64, seconds int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d of %d", workload, seed, res.Correct, res.Failed, res.Attempted)
	}
	return &res, nil
}

// selfCheck judges the benchmark the way the driver does: two interleaved
// sets of n runs per workload of the same code, every run on its own seed.
// For each end-to-end metric it prints both sets' quartiles, each set's
// spread (interquartile range over median) and how much worse the second
// median is than the first. It fails when a disagreement, or a spread other
// than setup_s's, exceeds the metric's bound in BENCHMARK.json. That is the
// driver's rule word for word: it does not judge the spread of setup_s,
// because a set-up happens a few times per run and not thousands.
func selfCheck(root string, n int, seed int64, seconds int) error {
	mf, err := readManifest(root)
	if err != nil {
		return err
	}
	// samples[workload][metric][set] lists one value per run.
	samples := map[string]map[string][2][]float64{}
	for _, w := range mf.Workloads {
		samples[w.Name] = map[string][2][]float64{}
	}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range mf.Workloads {
				s := seed + int64(set*n+i)
				res, err := runSelf(w.Name, s, seconds)
				if err != nil {
					return err
				}
				fmt.Printf("run %d/%d set %c %-15s seed %d ok\n", i+1, n, 'A'+set, w.Name, s)
				for name, v := range res.Metrics {
					pair := samples[w.Name][name]
					pair[set] = append(pair[set], v.Value)
					samples[w.Name][name] = pair
				}
			}
		}
	}

	var failures []error
	fmt.Printf("\n%-15s %-15s %5s  %32s  %32s  %7s %7s %7s\n", "workload", "metric", "bound",
		"set A  q1 / median / q3", "set B  q1 / median / q3", "iqrA", "iqrB", "worse")
	for _, w := range mf.Workloads {
		for _, md := range mf.EndToEnd {
			pair := samples[w.Name][md.Name]
			a1, a2, a3 := quartiles(pair[0])
			b1, b2, b3 := quartiles(pair[1])
			// How much worse B's median is than A's, as a share of A's.
			worse := (b2 - a2) / math.Abs(a2)
			if md.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(pair[0]), spread(pair[1])
			verdict := ""
			if md.Name != "setup_s" && math.Max(sa, sb) > md.Bound {
				verdict = "  SPREAD"
				failures = append(failures, fmt.Errorf("%s/%s: spread %.1f%% exceeds the bound %.0f%%", w.Name, md.Name, 100*math.Max(sa, sb), 100*md.Bound))
			}
			if math.Abs(worse) > md.Bound {
				verdict += "  DISAGREE"
				failures = append(failures, fmt.Errorf("%s/%s: medians disagree by %.1f%%, bound %.0f%%", w.Name, md.Name, 100*worse, 100*md.Bound))
			}
			fmt.Printf("%-15s %-15s %4.0f%%  %10.4g %10.4g %10.4g  %10.4g %10.4g %10.4g  %6.1f%% %6.1f%% %+6.1f%%%s\n",
				w.Name, md.Name, 100*md.Bound, a1, a2, a3, b1, b2, b3, 100*sa, 100*sb, 100*worse, verdict)
		}
	}
	return errors.Join(failures...)
}
