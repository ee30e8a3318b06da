// Command roboads regenerates every table and figure of the RoboADS
// paper's evaluation (§V) and runs individual attack scenarios.
//
// Usage:
//
//	roboads <subcommand> [flags]
//
// Subcommands:
//
//	run      -scenario N [-seed S]   run one Table II scenario, print the timeline
//	table2   [-trials N] [-seed S]   reproduce Table II (detection results)
//	table3                           print the Table III mode definitions
//	table4   [-seed S]               reproduce Table IV (anomaly variance vs sensors)
//	fig6     [-seed S]               emit the Fig. 6 raw-output series as TSV
//	fig7     [-plot a|b|c|d] [-trials N] [-seed S]
//	                                 reproduce the Fig. 7 ROC / F1 sweeps
//	tamiya   [-trials N] [-seed S]   reproduce the §V-D RC-car results
//	linear   [-trials N] [-seed S]   reproduce the §V-G linear-baseline comparison
//	evasive  [-seed S]               reproduce the §V-H stealthy-attack sweeps
//	scenario gen|list|run [flags]    adversarial scenario engine: generate or
//	                                 list a DSL suite, or run one through the
//	                                 detector and print its leaderboard
//	                                 (-trials N ≥ 2 adds bootstrap intervals)
//	related  [-trials N] [-seed S]   compare against the §II-C detector families
//	quality  [-seed S]               §V-E sensor-quality sweep
//	calibrate [-trials N] [-seed S]  auto-select decision parameters (§V-F as a tool)
//	report   [-o FILE] [-trials N]   regenerate the full markdown reproduction report:
//	                                 every single-result subcommand's output
//	                                 under a heading (stdout without -o)
//	record   -scenario N [-o FILE]   record a mission's monitor inputs as a trace
//	replay   [-i FILE] [-remote A]   replay a trace through a fresh detector,
//	                                 or stream it to a live serve fleet endpoint
//	serve    [-addr A]               host the fleet session API (/v1/sessions)
//	                                 with the fleet's live telemetry (/metrics);
//	                                 -follow URL starts the node as a
//	                                 replication follower
//	route    -nodes A,B,C [-addr A]  front N serve nodes as one fleet:
//	                                 consistent-hash placement, failover,
//	                                 migration redirect chasing
//
// run and replay also accept -telemetry ADDR to expose the same HTTP
// surface for the duration of the command.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"roboads/internal/attack"
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/eval"
	"roboads/internal/robot"
	"roboads/internal/scenario"
	"roboads/internal/sim"
	"roboads/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "roboads:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return errors.New("missing subcommand")
	}
	sub, rest := args[0], args[1:]

	// The scenario subcommand has its own verb structure (gen/list/run)
	// and flag set; dispatch it before the shared flags parse.
	if sub == "scenario" {
		return scenarioCmd(os.Stdout, rest)
	}

	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	trials := fs.Int("trials", 1, "missions per scenario")
	seed := fs.Int64("seed", 42, "base random seed")
	scenarioID := fs.Int("scenario", 4, "Table II scenario number (run/record)")
	plot := fs.String("plot", "a", "fig7 plot: a|b|c|d")
	output := fs.String("o", "", "output file (record, report; default stdout)")
	input := fs.String("i", "", "input trace file (replay; default stdin)")
	remote := fs.String("remote", "", "replay against a live `roboads serve` fleet endpoint (e.g. 127.0.0.1:8080) instead of an in-process detector")
	telemetryAddr := fs.String("telemetry", "", "serve /metrics, /snapshot and /debug/pprof on this address during run/replay (e.g. 127.0.0.1:8080)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (serve)")
	fleetIdle := fs.Duration("fleet-idle", 0, "evict fleet sessions idle this long (serve); 0 = 5m, negative = never")
	stateDir := fs.String("state-dir", "", "persist fleet sessions under this directory (serve); empty = no persistence")
	snapshotEvery := fs.Int("snapshot-every", 0, "frames between automatic session checkpoints (serve); 0 = 256, negative = manual only")
	commitWindow := fs.Duration("commit-window", 0, "group commit pace (serve): the quantum that steps a job writes its frames to the one log all sessions share and enlists the reply with the store's flusher, whose single fsync covers every session that enlisted; a frame is acknowledged only after a covering fsync. The value is a pace per session, not a delay and not a store-wide limit: one session's jobs are completed at most once per window, so an idle session's frame is synced at once and a lone client streaming without pause settles at one reply per window. 0 = no pace: flush when the flusher is free")
	traceFrames := fs.Bool("trace", true, "frame-lifecycle tracing (serve): per-stage latency histograms in /metrics and span exemplars at /v1/debug/trace; false = zero span work on the frame path")
	wire := fs.String("wire", "binary", "frame wire format for replay -remote: binary|json (replies are identical either way)")
	binary := fs.Bool("binary", false, "record in the binary trace format (smaller, faster to replay; replay auto-detects either)")
	follow := fs.String("follow", "", "start as a replication follower of the primary at this base URL (serve); requires -state-dir, serves nothing until the primary goes silent past -promote-after")
	ackPolicy := fs.String("ack-policy", "primary", "reply durability bar (serve): primary = ack after local fsync, follower = additionally wait for the connected follower's replication ack")
	ackTimeout := fs.Duration("ack-timeout", 0, "bound on the follower-ack wait (serve); 0 = 5s")
	promoteAfter := fs.Duration("promote-after", 0, "primary silence a follower tolerates before promoting (serve -follow); 0 = 2s")
	nodes := fs.String("nodes", "", "comma-separated fleet node base URLs (route), e.g. 127.0.0.1:8081,127.0.0.1:8082")
	healthInterval := fs.Duration("health-interval", 0, "node /readyz poll cadence (route); 0 = 500ms")
	if err := fs.Parse(rest); err != nil {
		return err
	}

	switch sub {
	case "run":
		return runScenario(*scenarioID, *seed, *telemetryAddr)
	case "serve":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return serveNode(ctx, serveOptions{
			addr:      *addr,
			fleetIdle: *fleetIdle,
			trace:     *traceFrames,

			stateDir:      *stateDir,
			snapshotEvery: *snapshotEvery,
			commitWindow:  *commitWindow,

			follow:       *follow,
			ackPolicy:    *ackPolicy,
			ackTimeout:   *ackTimeout,
			promoteAfter: *promoteAfter,
		})
	case "route":
		if *nodes == "" {
			return errors.New("route: -nodes is required (comma-separated node base URLs)")
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		var list []string
		for _, n := range strings.Split(*nodes, ",") {
			if n = strings.TrimSpace(n); n != "" {
				list = append(list, n)
			}
		}
		return runRoute(ctx, routeOptions{
			addr:           *addr,
			nodes:          list,
			healthInterval: *healthInterval,
		})
	case "fig6":
		result, err := eval.Fig6(*seed)
		if err != nil {
			return err
		}
		return eval.Render(os.Stdout, result.Write)
	case "fig7":
		i := strings.Index("abcd", strings.ToLower(*plot))
		if len(*plot) != 1 || i < 0 {
			return fmt.Errorf("unknown fig7 plot %q (want a|b|c|d)", *plot)
		}
		result, err := eval.Fig7(*trials, *seed)
		if err != nil {
			return err
		}
		return eval.Render(os.Stdout, func(w io.Writer) { result.WritePlot(w, i) })
	case "calibrate":
		runs, err := eval.Fig7Workload(*trials, *seed)
		if err != nil {
			return err
		}
		cal, err := eval.Calibrate(runs)
		if err != nil {
			return err
		}
		return eval.Render(os.Stdout, cal.Write)
	case "report":
		if *output == "" {
			return eval.Report(os.Stdout, *trials, *seed)
		}
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		err = eval.Report(f, *trials, *seed)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	case "record":
		return recordTrace(*scenarioID, *seed, *output, *binary)
	case "replay":
		if *remote != "" {
			return replayRemote(*input, *remote, *wire)
		}
		return replayTrace(*input, *telemetryAddr)
	}
	for _, a := range eval.Artifacts {
		if a.Name == sub {
			return a.Run(os.Stdout, *trials, *seed)
		}
	}
	usage()
	return fmt.Errorf("unknown subcommand %q", sub)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: roboads <run|table2|table3|table4|fig6|fig7|tamiya|linear|evasive|scenario|related|quality|calibrate|report|record|replay|serve|route> [flags]`)
}

func runScenario(id int, seed int64, telemetryAddr string) error {
	sc, err := scenarioByID(id)
	if err != nil {
		return err
	}
	fmt.Printf("scenario %v — %s\n", &sc, sc.Description)

	tel, shutdown, err := attachTelemetry(telemetryAddr)
	if err != nil {
		return err
	}
	defer shutdown()

	ecfg := core.DefaultEngineConfig()
	cfg := detect.DefaultConfig()
	if tel != nil {
		ecfg.Observer = tel
		cfg.Observer = tel
	}
	run, err := scenario.RunMission("khepera", "lab", sc, seed, scenario.MaxIterations,
		func(p robot.Profile) (*detect.Detector, error) { return p.NewDetector(ecfg, cfg) })
	if err != nil {
		return err
	}
	// Timeline of condition changes.
	prev := ""
	for _, tr := range run.Trace {
		cond := detect.CodeString(tr.Decision.Condition)
		if cond != prev {
			fmt.Printf("t=%5.1fs  %-8s mode=%s\n", float64(tr.K)*run.Dt, cond, tr.Decision.Mode)
			prev = cond
		}
	}
	fmt.Printf("\nsensor:   %v\nactuator: %v\n", run.SensorConfusion(), run.ActuatorConfusion())
	for _, t := range run.Targets() {
		if t.Onset >= 0 {
			fmt.Printf("delay[%s] = %.2fs\n", t.Name, t.Delay.Seconds(run.Dt))
		}
	}
	return nil
}

// scenarioByID resolves 0 (clean) or 1..11 (Table II).
func scenarioByID(id int) (attack.Scenario, error) {
	switch {
	case id == 0:
		return attack.CleanScenario(), nil
	case id >= 1 && id <= 11:
		return attack.KheperaScenarios()[id-1], nil
	default:
		return attack.Scenario{}, fmt.Errorf("scenario %d outside 0..11", id)
	}
}

// recordTrace runs a Khepera mission and writes its monitor inputs as a
// trace: JSON lines by default, the DESIGN.md §12 binary framing with
// -binary. Replay negotiates by header, so either file replays the same.
func recordTrace(scenarioID int, seed int64, output string, binary bool) error {
	sc, err := scenarioByID(scenarioID)
	if err != nil {
		return err
	}
	setup, err := sim.NewKhepera(sim.LabMission(), &sc, seed)
	if err != nil {
		return err
	}

	out := os.Stdout
	if output != "" {
		f, err := os.Create(output)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	names := make([]string, len(setup.Suite))
	for i, s := range setup.Suite {
		names[i] = s.Name()
	}
	header := trace.Header{
		Robot:   "khepera",
		Dt:      sim.KheperaDt,
		Sensors: names,
	}
	recorder := trace.NewRecorder(out, header)
	if binary {
		recorder = trace.NewBinaryRecorder(out, header)
	}
	records, err := setup.Sim.Run(scenario.MaxIterations)
	if err != nil {
		return err
	}
	for _, rec := range records {
		// Stamp frames with mission time so replay can reproduce the
		// recorded arrival cadence in the frame-gap histogram.
		tNanos := int64(float64(rec.K) * sim.KheperaDt * 1e9)
		if err := recorder.RecordAt(rec.K, tNanos, rec.UPlanned, rec.Readings); err != nil {
			return err
		}
	}
	if err := recorder.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d iterations of %v\n", len(records), &sc)
	return nil
}

// replayTrace feeds a recorded Khepera trace through a fresh detector
// and prints the condition timeline.
func replayTrace(input string, telemetryAddr string) error {
	in := os.Stdin
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	// The detector needs the mission geometry for the LiDAR model; the
	// standard lab mission is the recording context for `record`, and
	// robot.Named is that mission's profile.
	p, err := robot.Named("khepera")
	if err != nil {
		return err
	}
	tel, shutdown, err := attachTelemetry(telemetryAddr)
	if err != nil {
		return err
	}
	defer shutdown()
	ecfg := core.DefaultEngineConfig()
	cfg := detect.DefaultConfig()
	if tel != nil {
		ecfg.Observer = tel
		cfg.Observer = tel
	}
	det, err := p.NewDetector(ecfg, cfg)
	if err != nil {
		return err
	}
	// With telemetry attached, recorded frame timestamps reproduce the
	// mission's arrival cadence in the frame-gap histogram.
	var observe func(*trace.Frame)
	if tel != nil {
		prev := int64(-1)
		observe = func(f *trace.Frame) {
			if prev >= 0 && f.TNanos > 0 {
				tel.FrameGap(f.TNanos - prev)
			}
			if f.TNanos > 0 {
				prev = f.TNanos
			}
		}
	}
	reports, err := trace.ReplayObserve(in, det, observe)
	if err != nil {
		return err
	}
	prev := ""
	for _, rep := range reports {
		cond := detect.CodeString(rep.Decision.Condition)
		if cond != prev {
			fmt.Printf("k=%-4d %-8s mode=%s\n", rep.Decision.Iteration, cond, rep.Decision.Mode)
			prev = cond
		}
	}
	fmt.Fprintf(os.Stderr, "replayed %d iterations\n", len(reports))
	return nil
}
