package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"roboads/internal/benchquality"
	"roboads/internal/scenario"
)

// scenarioCmd implements the `roboads scenario <gen|list|run>` verbs of
// the adversarial scenario engine: generate a DSL suite, list one, or
// execute one through the detector and append a BENCH_quality.json
// leaderboard record.
func scenarioCmd(args []string) error {
	if len(args) == 0 {
		return errors.New("scenario: missing verb (want gen, list, or run)")
	}
	verb, rest := args[0], args[1:]
	fs := flag.NewFlagSet("scenario "+verb, flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "suite base seed (gen, or list/run without -i)")
	fuzz := fs.Int("fuzz", 0, "append N fuzz-swept scenarios to a generated suite")
	input := fs.String("i", "", "suite DSL file (list/run); empty = generate the default suite")
	output := fs.String("o", "", "output file (gen; default stdout)")
	trials := fs.Int("trials", 1, "trials per scenario (run)")
	workers := fs.Int("workers", 0, "concurrent missions (run); results identical for any value")
	label := fs.String("label", "default", "leaderboard record label (run)")
	out := fs.String("out", "", "append the leaderboard record to this BENCH_quality.json (run)")
	if err := fs.Parse(rest); err != nil {
		return err
	}

	load := func() (*scenario.Suite, error) {
		if *input == "" {
			s, err := scenario.Default(*seed)
			if err != nil {
				return nil, err
			}
			if *fuzz > 0 {
				if err := scenario.Fuzz(s, *fuzz); err != nil {
					return nil, err
				}
			}
			return s, nil
		}
		data, err := os.ReadFile(*input)
		if err != nil {
			return nil, err
		}
		return scenario.Decode(data)
	}

	switch verb {
	case "gen":
		s, err := load()
		if err != nil {
			return err
		}
		data, err := s.Encode()
		if err != nil {
			return err
		}
		if *output == "" {
			_, err = os.Stdout.Write(data)
			return err
		}
		if err := os.WriteFile(*output, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote suite %q (%d scenarios, seed %d) to %s\n",
			s.Name, len(s.Scenarios), s.Seed, *output)
		return nil

	case "list":
		s, err := load()
		if err != nil {
			return err
		}
		hash, err := s.Hash()
		if err != nil {
			return err
		}
		fmt.Printf("suite %q  seed=%d  hash=%s  (%d scenarios)\n", s.Name, s.Seed, hash, len(s.Scenarios))
		fmt.Printf("%-34s %-13s %-8s %-10s %s\n", "name", "class", "robot", "world", "attacks")
		for i := range s.Scenarios {
			sc := &s.Scenarios[i]
			world := sc.World
			if world == "" {
				world = "lab"
			}
			kinds := ""
			for j, a := range sc.Attacks {
				if j > 0 {
					kinds += ","
				}
				kinds += a.Kind
			}
			if kinds == "" {
				kinds = "-"
			}
			fmt.Printf("%-34s %-13s %-8s %-10s %s\n", sc.Name, sc.Class, sc.Robot, world, kinds)
		}
		return nil

	case "run":
		s, err := load()
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := scenario.RunSuite(s, scenario.RunConfig{Trials: *trials, Workers: *workers})
		if err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		res.Write(os.Stdout)
		fmt.Printf("wall: %.1fs\n", wall)
		if *out == "" {
			return nil
		}
		rec, err := res.Record(s, *label, wall)
		if err != nil {
			return err
		}
		if err := benchquality.Append(*out, rec); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "appended record %q (suite hash %s) to %s\n",
			*label, rec.Config.SuiteHash, *out)
		return nil

	default:
		return fmt.Errorf("scenario: unknown verb %q (want gen, list, or run)", verb)
	}
}
