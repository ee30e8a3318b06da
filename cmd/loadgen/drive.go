package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"roboads/client"
	"roboads/internal/api"
	"roboads/internal/mat"
	"roboads/internal/robot"
	"roboads/internal/router"
	"roboads/internal/stat"
	"roboads/internal/trace"
)

// frameGen synthesizes a plausible mission for one session: the robot's
// kinematic model driven by a fixed command under process noise, with
// readings from the profile's sensor suite — the same construction the
// simulator uses, minus attacks, so every frame steps cleanly and the
// load is the nominal-mission serving cost.
type frameGen struct {
	p   robot.Profile
	rng *stat.RNG
	x   mat.Vec
	u   mat.Vec
	k   int
}

func newFrameGen(robotName string, seed int64) (*frameGen, error) {
	p, err := robot.Named(robotName)
	if err != nil {
		return nil, err
	}
	u := make(mat.Vec, p.Model.ControlDim())
	for i := range u {
		// A steady command at 30% of the plausibility envelope: moving,
		// comfortably inside the gate.
		if i < p.UMax.Len() && p.UMax[i] > 0 {
			u[i] = 0.3 * p.UMax[i]
		} else {
			u[i] = 0.1
		}
	}
	return &frameGen{p: p, rng: stat.NewRNG(seed), x: p.X0.Clone(), u: u}, nil
}

func (g *frameGen) next() *trace.Frame {
	g.x = g.p.Model.F(g.x, g.u).Add(g.rng.GaussianVec(g.p.ProcessStd))
	f := &trace.Frame{K: g.k, U: []float64(g.u), Readings: make(map[string][]float64, len(g.p.Suite))}
	for _, s := range g.p.Suite {
		f.Readings[s.Name()] = []float64(s.H(g.x))
	}
	g.k++
	return f
}

// sessionResult is one session's share of the run.
type sessionResult struct {
	sent, acked int
	// retries counts client-observed backpressure (429 resubmissions on
	// /step; the streaming endpoint absorbs backpressure server-side).
	retries int
	// latencies holds one client-observed ack latency (seconds) per
	// acked frame; in stream mode every frame of a lockstep batch
	// records the batch round trip.
	latencies []float64
	err       error
}

// driveAll runs one drive phase: every session gets its own generator —
// seeded per session, and reused across phases so a crash-recovery or
// migration phase continues the mission rather than restarting it — and
// its own goroutine, all stopping at the shared deadline.
func driveAll(base string, ids []string, gens []*frameGen, cfg config, dur time.Duration) []sessionResult {
	deadline := time.Now().Add(dur)
	results := make([]sessionResult, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(slot int, id string) {
			defer wg.Done()
			if cfg.batch > 1 {
				results[slot] = driveStream(base, id, gens[slot], cfg, deadline)
			} else {
				results[slot] = driveStep(base, id, gens[slot], cfg, deadline)
			}
		}(i, id)
	}
	wg.Wait()
	return results
}

// makeGens builds one deterministic generator per session slot.
func makeGens(cfg config) ([]*frameGen, error) {
	gens := make([]*frameGen, cfg.sessions)
	for i := range gens {
		g, err := newFrameGen(cfg.robot, cfg.seed+int64(i))
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	return gens, nil
}

// pace sleeps out the remainder of the submission interval (rate
// pacing); a closed-loop run (rate 0) never sleeps.
func pace(cfg config, iterStart time.Time) {
	if cfg.rate <= 0 {
		return
	}
	interval := time.Duration(float64(cfg.batch) / cfg.rate * float64(time.Second))
	if rest := interval - time.Since(iterStart); rest > 0 {
		time.Sleep(rest)
	}
}

// driveStep posts one frame per /step request via the client package,
// which resubmits on 429 with the server's exact millisecond hint —
// each resubmission counts as client-observed backpressure, and the
// recorded latency spans first post to final ack (the latency a real
// control loop would see).
func driveStep(base, id string, gen *frameGen, cfg config, deadline time.Time) sessionResult {
	var res sessionResult
	c := client.New(base, client.WithRetryHook(func(time.Duration) { res.retries++ }))
	ctx := context.Background()
	for time.Now().Before(deadline) {
		iterStart := time.Now()
		frame := gen.next()
		res.sent++
		t0 := time.Now()
		line, err := c.Step(ctx, id, frame)
		if err != nil {
			res.err = err
			return res
		}
		if line.Error != "" {
			res.err = fmt.Errorf("frame %d: %s", line.K, line.Error)
			return res
		}
		res.acked++
		res.latencies = append(res.latencies, time.Since(t0).Seconds())
		pace(cfg, iterStart)
	}
	return res
}

// driveStream drives the /frames streaming endpoint in lockstep
// batches: write cfg.batch frames, read cfg.batch reply lines, repeat.
// The client stream stays open for the whole phase (the server answers
// full duplex); each frame of a batch records the batch round trip as
// its latency.
func driveStream(base, id string, gen *frameGen, cfg config, deadline time.Time) sessionResult {
	var res sessionResult
	stream, err := client.New(base).Stream(context.Background(), id, cfg.wire != "json")
	if err != nil {
		res.err = err
		return res
	}
	defer stream.Close()
	for time.Now().Before(deadline) {
		iterStart := time.Now()
		t0 := time.Now()
		for i := 0; i < cfg.batch; i++ {
			if err := stream.Send(gen.next()); err != nil {
				res.err = err
				return res
			}
		}
		res.sent += cfg.batch
		for i := 0; i < cfg.batch; i++ {
			line, err := stream.Recv()
			if err != nil {
				res.err = fmt.Errorf("reply stream ended after %d acks: %w", res.acked, err)
				return res
			}
			if line.Error != "" {
				res.err = fmt.Errorf("frame %d: %s", line.K, line.Error)
				return res
			}
			res.acked++
		}
		rt := time.Since(t0).Seconds()
		for i := 0; i < cfg.batch; i++ {
			res.latencies = append(res.latencies, rt)
		}
		pace(cfg, iterStart)
	}
	return res
}

// createSessions opens n sessions for the robot. Through a router, each
// create is placed by consistent hash of the assigned ID.
func createSessions(base, robot string, n int) ([]string, error) {
	c := client.New(base)
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		info, err := c.Create(context.Background(), api.CreateRequest{Robot: robot})
		if err != nil {
			return nil, fmt.Errorf("create session: %w", err)
		}
		ids = append(ids, info.ID)
	}
	return ids, nil
}

func deleteSession(base, id string) {
	client.New(base).Delete(context.Background(), id)
}

// awaitSessions polls GET /v1/sessions until at least n sessions are
// live — after a crash restart, the moment startup recovery has revived
// the fleet (through a router, the moment its health checker readmits
// the restarted node too).
func awaitSessions(base string, n int, timeout time.Duration) error {
	c := client.New(base)
	deadline := time.Now().Add(timeout)
	for {
		list, err := c.List(context.Background())
		if err == nil && len(list) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server did not recover %d sessions within %s", n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// serveChild is a spawned `roboads serve` or `roboads route` process.
type serveChild struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// spawnChild starts the roboads binary with args on an ephemeral port
// and waits for its "... on http://ADDR" ready line on stderr. A real
// binary (not `go run`) so kill -9 reaches the server itself.
func spawnChild(bin string, args []string) (*serveChild, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if idx := strings.Index(line, " on http://"); idx >= 0 {
				addr, _, _ := strings.Cut(line[idx+len(" on http://"):], " ")
				select {
				case ready <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-ready:
		return &serveChild{cmd: cmd, base: "http://" + addr}, nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, errors.New("spawned process produced no ready line within 30s")
	}
}

// spawnServe starts a fleet-only server over the given state directory;
// addr "" picks an ephemeral port.
func spawnServe(cfg config, stateDir, addr string) (*serveChild, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return spawnChild(cfg.roboadsBin, []string{
		"serve",
		"-addr", addr,
		"-scenario=-1",
		"-state-dir", stateDir,
		"-commit-window", cfg.commitWindow.String(),
	})
}

// spawnRoute starts a router fronting the node base URLs.
func spawnRoute(cfg config, nodes []string) (*serveChild, error) {
	return spawnChild(cfg.roboadsBin, []string{
		"route",
		"-addr", "127.0.0.1:0",
		"-nodes", strings.Join(nodes, ","),
		"-health-interval", "100ms",
	})
}

// killAndRestart SIGKILLs the child — no drain, no final fsync beyond
// what the WAL already guaranteed — and starts a fresh server on the
// same state directory. With sameAddr the replacement rebinds the dead
// child's port, so a router's static node list still reaches it.
func (c *serveChild) killAndRestart(cfg config, stateDir string, sameAddr bool) (*serveChild, error) {
	if err := c.cmd.Process.Kill(); err != nil {
		return nil, err
	}
	c.cmd.Wait()
	addr := ""
	if sameAddr {
		addr = strings.TrimPrefix(c.base, "http://")
	}
	fmt.Fprintln(os.Stderr, "kill -9 delivered; restarting on", stateDir)
	return spawnServe(cfg, stateDir, addr)
}

// stop terminates the child at end of run. Idempotent enough for the
// deferred double-stop after a crash restart (Kill on a dead process
// just errors).
func (c *serveChild) stop() {
	if c == nil || c.cmd == nil || c.cmd.Process == nil {
		return
	}
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// cluster is a spawned multi-node fleet: N serve children plus a router
// fronting them. All loadgen traffic goes through the router base.
type cluster struct {
	nodes  []*serveChild
	dirs   []string
	router *serveChild
}

// spawnCluster starts cfg.nodes serve children (each on its own state
// subdirectory, so a killed node restarts over its own WALs) and a
// router over their base URLs.
func spawnCluster(cfg config, stateDir string) (*cluster, error) {
	cl := &cluster{}
	for i := 0; i < cfg.nodes; i++ {
		dir := filepath.Join(stateDir, fmt.Sprintf("node%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			cl.stop()
			return nil, err
		}
		node, err := spawnServe(cfg, dir, "")
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.nodes = append(cl.nodes, node)
		cl.dirs = append(cl.dirs, dir)
	}
	bases := make([]string, len(cl.nodes))
	for i, n := range cl.nodes {
		bases[i] = n.base
	}
	router, err := spawnRoute(cfg, bases)
	if err != nil {
		cl.stop()
		return nil, err
	}
	cl.router = router
	return cl, nil
}

// bases lists the node base URLs in spawn order — the router's -nodes
// list, which is also what placement ranking hashes over.
func (cl *cluster) bases() []string {
	out := make([]string, len(cl.nodes))
	for i, n := range cl.nodes {
		out[i] = n.base
	}
	return out
}

func (cl *cluster) stop() {
	cl.router.stop()
	for _, n := range cl.nodes {
		n.stop()
	}
}

// migrateHalf live-migrates every other session to its next-ranked node
// (the session's failover successor in placement order), through the
// router — proof the fleet keeps serving while sessions move. Returns
// how many moved.
func migrateHalf(base string, ids, nodes []string) (int, error) {
	c := client.New(base)
	moved := 0
	for i, id := range ids {
		if i%2 != 0 {
			continue
		}
		target := router.Rank(id, nodes)[1]
		if _, err := c.Migrate(context.Background(), id, target); err != nil {
			return moved, fmt.Errorf("session %s -> %s: %w", id, target, err)
		}
		moved++
	}
	return moved, nil
}

// checkRecovered asserts the durability contract after kill -9: per
// session, frames acked before the kill ≤ frames recovered ≤ frames
// sent. Group commit acks only after the covering fsync, so recovery
// may never come up short of an ack.
func checkRecovered(base string, ids []string, firstHalf []sessionResult) error {
	c := client.New(base)
	for i, id := range ids {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			return fmt.Errorf("status %s: %w", id, err)
		}
		if st.FramesApplied < firstHalf[i].acked || st.FramesApplied > firstHalf[i].sent {
			return fmt.Errorf("session %s: recovered %d frames with %d acked, %d sent (want acked <= recovered <= sent)",
				id, st.FramesApplied, firstHalf[i].acked, firstHalf[i].sent)
		}
	}
	return nil
}
