// Command loadgen is the serving-stack load harness (ROADMAP item 5):
// it drives a `roboads serve` fleet endpoint at a configurable
// sessions × rate × batch size × durability policy, measures
// client-observed step latency (p50/p95/p99), throughput, sessions per
// core, and backpressure, optionally SIGKILLs a spawned server mid-run
// to measure crash-recovery time, cross-checks the server's frame-trace
// stage attribution against its end-to-end latency, and appends one
// record to BENCH_serve.json — the fleet-level counterpart of
// BENCH_engine.json that cmd/benchdiff gates.
//
// Typical smoke run (spawns its own server on a scratch state dir):
//
//	go build -o /tmp/roboads ./cmd/roboads
//	go run ./cmd/loadgen -spawn -roboads /tmp/roboads \
//	    -sessions 8 -duration 10s -batch 4 -crash \
//	    -check-attribution 0.10 -out BENCH_serve.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

type config struct {
	// addr targets an already-running server (host:port); empty with
	// spawn set runs a private one.
	addr string
	// spawn runs a child `roboads serve` (binary at roboadsBin) on a
	// scratch or caller-provided state dir, on an ephemeral port.
	spawn      bool
	roboadsBin string
	stateDir   string
	// commitWindow is the spawned server's group-commit pace.
	commitWindow time.Duration

	sessions int
	// rate is frames/s per session; 0 runs closed-loop (next frame as
	// soon as the previous ack lands).
	rate     float64
	duration time.Duration
	// batch > 1 drives the streaming /frames endpoint in lockstep
	// batches of this size; 1 posts frames one at a time to /step.
	batch int
	wire  string
	robot string
	seed  int64

	// nodes > 1 spawns that many serve children plus a `roboads route`
	// router fronting them, and drives all traffic through the router
	// (multi-node mode; requires spawn).
	nodes int
	// migrate live-migrates every other session to its next-ranked node
	// at half time (multi-node mode only).
	migrate bool

	// crash SIGKILLs the spawned server at half time (in multi-node
	// mode: the first node, while the router fails traffic over),
	// restarts it on the same state dir, measures time back to all
	// sessions recovered, and finishes the run on the revived sessions.
	crash bool
	// checkAttribution, when > 0, fails the run unless the server's
	// per-stage p50 sum is within this fraction of its end-to-end p50
	// (the span self-validation contract).
	checkAttribution float64

	out   string
	label string
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var cfg config
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "", "drive an existing server at this address (host:port); mutually exclusive with -spawn")
	fs.BoolVar(&cfg.spawn, "spawn", false, "spawn a private `roboads serve` child for the run (required for -crash)")
	fs.StringVar(&cfg.roboadsBin, "roboads", "", "path to the roboads binary (required with -spawn; a real binary, so -crash can SIGKILL it)")
	fs.StringVar(&cfg.stateDir, "state-dir", "", "state directory for the spawned server (default: a temp dir, removed afterwards)")
	fs.DurationVar(&cfg.commitWindow, "commit-window", 2*time.Millisecond, "spawned server group-commit pace per session; 0 = no pace: flush when the flusher is free")
	fs.IntVar(&cfg.sessions, "sessions", 8, "concurrent sessions to drive")
	fs.Float64Var(&cfg.rate, "rate", 0, "frames/s per session; 0 = closed loop")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "total drive time (halved around the kill with -crash)")
	fs.IntVar(&cfg.batch, "batch", 1, "frames per submission: 1 = /step per frame, >1 = lockstep batches on the /frames stream")
	fs.StringVar(&cfg.wire, "wire", "binary", "frame wire format for -batch>1 streams: binary|json")
	fs.StringVar(&cfg.robot, "robot", "khepera", "robot profile driven in every session")
	fs.Int64Var(&cfg.seed, "seed", 42, "base seed for the per-session frame generators")
	fs.IntVar(&cfg.nodes, "nodes", 1, "spawn this many serve nodes plus a router and drive through the router (multi-node mode; needs -spawn)")
	fs.BoolVar(&cfg.migrate, "migrate", false, "live-migrate every other session to its next-ranked node at half time (needs -nodes > 1)")
	fs.BoolVar(&cfg.crash, "crash", false, "SIGKILL the spawned server (multi-node: the first node) at half time and measure recovery")
	fs.Float64Var(&cfg.checkAttribution, "check-attribution", 0, "fail unless |sum(stage p50) - e2e p50| <= this fraction of e2e p50 (0 = report only)")
	fs.StringVar(&cfg.out, "out", "BENCH_serve.json", "serving benchmark trajectory to append to; empty = don't write")
	fs.StringVar(&cfg.label, "label", "", "record label (benchdiff -serve compares records with equal label+config)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.sessions <= 0 || cfg.batch <= 0 || cfg.duration <= 0 {
		return fmt.Errorf("sessions (%d), batch (%d), and duration (%s) must be positive", cfg.sessions, cfg.batch, cfg.duration)
	}
	if cfg.wire != "binary" && cfg.wire != "json" {
		return fmt.Errorf("unknown wire format %q (want binary|json)", cfg.wire)
	}
	if cfg.spawn == (cfg.addr != "") {
		return fmt.Errorf("exactly one of -spawn or -addr is required")
	}
	if cfg.spawn && cfg.roboadsBin == "" {
		return fmt.Errorf("-spawn needs -roboads (path to a built roboads binary)")
	}
	if cfg.crash && !cfg.spawn {
		return fmt.Errorf("-crash needs -spawn (cannot SIGKILL a server loadgen does not own)")
	}
	if cfg.nodes < 1 {
		return fmt.Errorf("-nodes (%d) must be at least 1", cfg.nodes)
	}
	if cfg.nodes > 1 && !cfg.spawn {
		return fmt.Errorf("-nodes > 1 needs -spawn (loadgen owns the cluster it routes)")
	}
	if cfg.migrate && cfg.nodes < 2 {
		return fmt.Errorf("-migrate needs -nodes > 1 (a migration target)")
	}

	rec, err := runLoad(cfg)
	if err != nil {
		return err
	}
	printRecord(os.Stderr, rec)
	if cfg.out != "" {
		if err := appendRecord(cfg.out, rec); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "appended record to %s\n", cfg.out)
	}
	if cfg.checkAttribution > 0 {
		if rec.Results.ServerFrames == 0 {
			return fmt.Errorf("attribution check: server reported no traced frames (is the server running with -trace?)")
		}
		if rec.Results.AttributionError > cfg.checkAttribution {
			return fmt.Errorf("attribution check: stage p50 sum %.3fms vs e2e p50 %.3fms — error %.1f%% exceeds %.1f%%",
				rec.Results.StageSumP50Ms, rec.Results.ServerE2EMs.P50,
				100*rec.Results.AttributionError, 100*cfg.checkAttribution)
		}
		fmt.Fprintf(os.Stderr, "attribution ok: stage sum %.3fms vs e2e %.3fms (%.1f%% <= %.1f%%)\n",
			rec.Results.StageSumP50Ms, rec.Results.ServerE2EMs.P50,
			100*rec.Results.AttributionError, 100*cfg.checkAttribution)
	}
	return nil
}

// runLoad executes one full measurement run and assembles its record.
func runLoad(cfg config) (*Record, error) {
	base := cfg.addr
	var child *serveChild
	var cl *cluster
	if cfg.spawn {
		dir := cfg.stateDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "loadgen-state-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		cfg.stateDir = dir
		var err error
		if cfg.nodes > 1 {
			cl, err = spawnCluster(cfg, dir)
			if err != nil {
				return nil, err
			}
			defer cl.stop()
			base = cl.router.base
		} else {
			child, err = spawnServe(cfg, dir, "")
			if err != nil {
				return nil, err
			}
			defer child.stop()
			base = child.base
		}
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	startSnap, err := scrapeSnapshot(base)
	if err != nil {
		return nil, fmt.Errorf("scrape /snapshot: %w (server up at %s?)", err, base)
	}

	gens, err := makeGens(cfg)
	if err != nil {
		return nil, err
	}
	ids, err := createSessions(base, cfg.robot, cfg.sessions)
	if err != nil {
		return nil, err
	}

	var recovery float64
	var results []sessionResult
	driveStart := time.Now()
	if cfg.crash || cfg.migrate {
		half := cfg.duration / 2
		results = driveAll(base, ids, gens, cfg, half)
		if cfg.migrate {
			moved, err := migrateHalf(base, ids, cl.bases())
			if err != nil {
				return nil, fmt.Errorf("migrate: %w", err)
			}
			fmt.Fprintf(os.Stderr, "migrated %d of %d sessions to their next-ranked nodes\n", moved, len(ids))
		}
		if cfg.crash {
			killedAt := time.Now()
			if cl != nil {
				// Kill the first node; the router fails traffic over while
				// it is down, and its static node list still reaches the
				// replacement on the same port.
				restarted, err := cl.nodes[0].killAndRestart(cfg, cl.dirs[0], true)
				if err != nil {
					return nil, fmt.Errorf("crash recovery: %w", err)
				}
				cl.nodes[0] = restarted
			} else {
				restarted, err := child.killAndRestart(cfg, cfg.stateDir, false)
				if err != nil {
					return nil, fmt.Errorf("crash recovery: %w", err)
				}
				child = restarted
				defer child.stop()
				base = child.base
			}
			if err := awaitSessions(base, cfg.sessions, 30*time.Second); err != nil {
				return nil, fmt.Errorf("crash recovery: %w", err)
			}
			recovery = time.Since(killedAt).Seconds()
			fmt.Fprintf(os.Stderr, "recovered %d sessions %.3fs after kill -9\n", cfg.sessions, recovery)
			// Durability contract: every frame acked before the kill is
			// present after recovery, and nothing not sent appears.
			if err := checkRecovered(base, ids, results); err != nil {
				return nil, fmt.Errorf("crash recovery: %w", err)
			}
		}
		// The fleet restores the same session IDs; finish the run on
		// them — the generators continue their missions where the first
		// half stopped — to prove the sessions actually serve.
		tail := driveAll(base, ids, gens, cfg, half)
		results = append(results, tail...)
	} else {
		results = driveAll(base, ids, gens, cfg, cfg.duration)
	}
	driveSeconds := time.Since(driveStart).Seconds()
	if cfg.crash {
		// Recovery downtime is reported separately; throughput rates
		// only over time spent actually driving.
		driveSeconds -= recovery
	}

	endSnap, err := scrapeSnapshot(base)
	if err != nil {
		return nil, fmt.Errorf("scrape /snapshot: %w", err)
	}
	trace, err := scrapeTrace(base)
	if err != nil {
		return nil, fmt.Errorf("scrape /v1/debug/trace: %w", err)
	}

	for _, id := range ids {
		deleteSession(base, id)
	}
	return buildRecord(cfg, results, driveSeconds, recovery, startSnap, endSnap, trace), nil
}
