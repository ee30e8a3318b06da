package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"roboads/internal/eval"
	"roboads/internal/scenario"
)

// scenarioCmd implements the `roboads scenario <gen|list|run>` verbs of
// the adversarial scenario engine: generate a DSL suite, list one, or
// execute one through the detector and print its leaderboard to stdout.
func scenarioCmd(stdout io.Writer, args []string) error {
	if len(args) == 0 {
		return errors.New("scenario: missing verb (want gen, list, or run)")
	}
	verb, rest := args[0], args[1:]
	fs := flag.NewFlagSet("scenario "+verb, flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "suite base seed (gen, or list/run without -i)")
	fuzz := fs.Int("fuzz", 0, "append N fuzz-swept scenarios to a generated suite")
	input := fs.String("i", "", "suite DSL file (list/run); empty = generate the default suite")
	output := fs.String("o", "", "output file (gen; default stdout)")
	trials := fs.Int("trials", 1, "trials per scenario (run); from 2 on each rate and delay carries its 95% bootstrap interval")
	workers := fs.Int("workers", 0, "concurrent missions (run); results identical for any value")
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
			_, err = stdout.Write(data)
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
		fmt.Fprintf(stdout, "suite %q  seed=%d  hash=%s  (%d scenarios)\n", s.Name, s.Seed, hash, len(s.Scenarios))
		fmt.Fprintf(stdout, "%-34s %-13s %-8s %-10s %s\n", "name", "class", "robot", "world", "attacks")
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
			fmt.Fprintf(stdout, "%-34s %-13s %-8s %-10s %s\n", sc.Name, sc.Class, sc.Robot, world, kinds)
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
		return eval.Render(stdout, func(w io.Writer) {
			res.Write(w)
			fmt.Fprintf(w, "wall: %.1fs\n", wall)
		})

	default:
		return fmt.Errorf("scenario: unknown verb %q (want gen, list, or run)", verb)
	}
}
