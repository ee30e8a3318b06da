package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/fleet"
	"roboads/internal/robot"
	"roboads/internal/scenario"
	"roboads/internal/sim"
	"roboads/internal/telemetry"
)

// serveOptions configures the live telemetry server.
type serveOptions struct {
	addr       string
	scenarioID int // negative: no local mission loop (fleet-only server)
	seed       int64
	// missions bounds the number of missions run back to back; 0 loops
	// until the context is cancelled. Each mission uses seed+mission.
	missions int
	// interval paces the control loop (sleep per iteration); 0 runs at
	// full speed.
	interval time.Duration
	// fleetIdle evicts fleet sessions idle this long; 0 defaults to
	// 5 minutes, negative disables eviction.
	fleetIdle time.Duration
	// fleetQueue bounds each session's frame queue (0: fleet default).
	fleetQueue int
	// drain bounds the fleet drain on shutdown (0: 10 seconds).
	drain time.Duration
	// stateDir enables fleet durability: sessions snapshot their
	// detector state and WAL every accepted frame under this directory,
	// and a restarted server recovers them bit-for-bit. Empty disables
	// persistence (the frame hot path is then untouched).
	stateDir string
	// snapshotEvery is the automatic checkpoint cadence in frames
	// (fleet.Durability.SnapshotEvery; 0 = 256, negative = manual only).
	snapshotEvery int
	// commitWindow paces cross-session group commit
	// (fleet.Durability.CommitWindow): the store's flusher syncs the
	// sessions' appends together at the pace the window sets, and a frame
	// is acknowledged only after the group fsync covering it. 0 = no pace:
	// flush when the flusher is free.
	commitWindow time.Duration
	// trace enables frame-lifecycle tracing: per-stage latency
	// histograms in /metrics and reservoir-sampled span exemplars at
	// /v1/debug/trace. Off, the frame path does no span work at all.
	trace bool
	// follow starts the node as a replication follower of the primary at
	// this base URL: it tails the primary's WAL stream into its own
	// durable state (requires stateDir) and serves nothing — /readyz
	// stays 503 — until the primary goes silent past promoteAfter, at
	// which point it promotes and opens for traffic.
	follow string
	// ackPolicy is the primary's reply durability bar
	// (fleet.Config.AckPolicy): "primary" (default) acks after the local
	// fsync barrier, "follower" additionally waits for the connected
	// follower's replication ack. Ignored in -follow mode.
	ackPolicy string
	// ackTimeout bounds the follower-ack wait (0: fleet default 5s).
	ackTimeout time.Duration
	// promoteAfter is how long a follower tolerates primary silence
	// before promoting (0: 2s).
	promoteAfter time.Duration
	// onReady, when set, receives the bound listen address once the
	// HTTP surface is up (tests bind to 127.0.0.1:0).
	onReady func(net.Addr)
	// quiet suppresses the stderr event log.
	quiet bool
}

// serveScenario runs the monitor as a service: the fleet session API
// (/v1/sessions) and the telemetry surface (/metrics, /snapshot,
// /debug/pprof, /debug/vars) live on opts.addr, and — unless scenarioID
// is negative — Table II missions loop locally to keep the engine-level
// series moving. It returns when the context is cancelled or, with
// missions > 0, after that many missions; on the way out the fleet
// drains, so every accepted frame is answered before the process exits.
func serveScenario(ctx context.Context, opts serveOptions) error {
	topts := telemetry.Options{
		// The compact per-step Debug record would be noise at mission
		// rate; sample it 1-in-50 and leave Info (mode switches, alarm
		// edges, condition changes) unsampled.
		SampleEvery: map[slog.Level]int{slog.LevelDebug: 50},
	}
	if !opts.quiet {
		topts.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	}
	tel := telemetry.New(topts)

	idle := opts.fleetIdle
	if idle == 0 {
		idle = 5 * time.Minute
	} else if idle < 0 {
		idle = 0
	}
	var tracer *telemetry.Tracer
	if opts.trace {
		tracer = telemetry.NewTracer(tel.Registry())
	}
	ackPolicy := opts.ackPolicy
	if opts.follow != "" {
		if opts.stateDir == "" {
			return fmt.Errorf("serve: -follow requires -state-dir (the follower replicates into durable state)")
		}
		// A follower's own acks gate nothing downstream; the follower-ack
		// bar only makes sense on the primary.
		ackPolicy = fleet.AckPrimary
	}
	mgr, err := fleet.NewManager(fleet.Config{
		QueueDepth:  opts.fleetQueue,
		IdleTimeout: idle,
		Build:       fleet.DefaultBuilder(),
		Metrics:     tel.Registry(),
		Trace:       tracer,
		AckPolicy:   ackPolicy,
		AckTimeout:  opts.ackTimeout,
		Durability: fleet.Durability{
			Dir:           opts.stateDir,
			SnapshotEvery: opts.snapshotEvery,
			CommitWindow:  opts.commitWindow,
		},
	})
	if err != nil {
		return err
	}

	// The readiness gate: a normal node is ready the moment NewManager
	// returns (recovery has finished by then); a follower serves nothing
	// until it promotes. /readyz reflects the same gate, so a router
	// never places work on a node that would 503 it.
	var promoted atomic.Bool
	promoted.Store(opts.follow == "")
	ready := func() bool { return promoted.Load() && mgr.Ready() }
	healthz := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	readyz := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !ready() {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"node not ready","code":"not_ready","retryAfterMs":1000}`)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})

	srv, addr, err := tel.ServeWith(opts.addr, map[string]http.Handler{
		"/v1/":         fleet.GatedHandler(mgr.Handler(), ready),
		"GET /healthz": healthz,
		"GET /readyz":  readyz,
	})
	if err != nil {
		mgr.Shutdown(context.Background())
		return err
	}
	defer srv.Close()
	// Drain before the listener dies: the fleet stops accepting frames,
	// answers everything already accepted, then in-flight HTTP streams
	// finish under srv.Shutdown. Runs before the deferred srv.Close.
	defer func() {
		drain := opts.drain
		if drain <= 0 {
			drain = 10 * time.Second
		}
		dctx, dcancel := context.WithTimeout(context.Background(), drain)
		defer dcancel()
		mgr.Shutdown(dctx)
		srv.Shutdown(dctx)
	}()
	if !opts.quiet {
		fmt.Fprintf(os.Stderr, "serving on http://%s (/v1/sessions /metrics /snapshot /debug/pprof /debug/vars)\n", addr)
	}
	if opts.onReady != nil {
		opts.onReady(addr)
	}

	if opts.follow != "" {
		go func() {
			f := &fleet.Follower{
				Manager:      mgr,
				Primary:      opts.follow,
				PromoteAfter: opts.promoteAfter,
			}
			if !opts.quiet {
				f.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
			}
			if err := f.Run(ctx); err == nil {
				// The primary is presumed dead; this node holds every
				// acked frame and takes over.
				promoted.Store(true)
				if !opts.quiet {
					fmt.Fprintf(os.Stderr, "promoted: serving (was following %s)\n", opts.follow)
				}
			}
		}()
	}

	if opts.scenarioID < 0 {
		<-ctx.Done()
		return nil
	}
	sc, err := scenarioByID(opts.scenarioID)
	if err != nil {
		return err
	}

	ecfg := core.DefaultEngineConfig()
	ecfg.Observer = tel
	cfg := detect.DefaultConfig()
	cfg.Observer = tel

	for mission := 0; opts.missions == 0 || mission < opts.missions; mission++ {
		if ctx.Err() != nil {
			return nil
		}
		setup, err := sim.NewKhepera(sim.LabMission(), &sc, opts.seed+int64(mission))
		if err != nil {
			return err
		}
		prof := robot.Khepera(setup)
		det, err := prof.NewDetector(ecfg, cfg)
		if err != nil {
			return err
		}
		for i := 0; i < scenario.MaxIterations; i++ {
			if ctx.Err() != nil {
				return nil
			}
			step, err := setup.Sim.Step()
			if err != nil {
				break // mission over
			}
			if _, err := det.Step(step.UPlanned, step.Readings); err != nil {
				return err
			}
			if step.Done {
				break
			}
			if opts.interval > 0 {
				select {
				case <-ctx.Done():
					return nil
				case <-time.After(opts.interval):
				}
			}
		}
	}
	return nil
}

// attachTelemetry starts a telemetry server for the run/replay
// subcommands' -telemetry flag. The returned shutdown func is a no-op
// when addr is empty (telemetry disabled, nil Telemetry).
func attachTelemetry(addr string) (*telemetry.Telemetry, func(), error) {
	if addr == "" {
		return nil, func() {}, nil
	}
	tel := telemetry.New(telemetry.Options{
		Logger:      slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo})),
		SampleEvery: map[slog.Level]int{slog.LevelDebug: 50},
	})
	srv, bound, err := tel.Serve(addr)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "telemetry listening on http://%s\n", bound)
	return tel, func() { srv.Close() }, nil
}
