package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"roboads/client"
	"roboads/internal/api"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// Shape of the serve_* workloads.
const (
	commitWindow = 2 * time.Millisecond // flush policy, on both sides of any comparison
	resumeFrames = 64                   // reports compared with the uninterrupted reference after a recovery
	twinSeconds  = 4                    // traced run: length of the durability twin's phase
)

// buildServer compiles cmd/roboads once per invocation, before any set-up
// is timed. The driver's checkout has no binary, so every run builds from
// source; the go build cache makes all but the first one a relink check.
func buildServer(e *env) (string, error) {
	bin := filepath.Join(e.out, "roboads")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/roboads")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/roboads: %w\n%s", err, out)
	}
	return bin, nil
}

// server is a spawned `roboads serve -scenario=-1`.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// spawn starts the real binary (not `go run`, so SIGKILL reaches the
// server itself) on an ephemeral port and waits for its ready line on
// standard error, then for /readyz. An empty stateDir serves volatile.
func spawn(bin, stateDir string) (*server, error) {
	args := []string{"serve", "-addr", "127.0.0.1:0", "-scenario=-1"}
	if stateDir != "" {
		args = append(args, "-state-dir", stateDir, "-commit-window", commitWindow.String())
	}
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
		// Reads until the child's standard error closes, which its exit does.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), " on http://"); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case ready <- addr:
				default:
				}
			}
		}
	}()
	s := &server{cmd: cmd}
	select {
	case addr := <-ready:
		s.base = "http://" + addr
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("server printed no ready line within 30 s")
	}
	c := client.New(s.base)
	for deadline := time.Now().Add(30 * time.Second); ; {
		if err := c.Ready(context.Background()); err == nil {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("server not ready within 30 s")
		}
		time.Sleep(time.Millisecond)
	}
}

// kill delivers SIGKILL — no drain, no final fsync beyond what the WAL
// already guaranteed — and waits for the process to end.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// streamClient is one closed-loop client: a session, its stream, its frame
// generator and its correctness evidence.
type streamClient struct {
	id     string
	seed   int64
	gen    *frameGen
	stream *client.Stream
	check  sessionCheck
	rec    *recorder
}

// roundTrip sends n frames and reads their n acks in order. It returns the
// time before the first send and after the last ack. The workload's op is
// the one-frame round trip (README, "one frame per round trip"); only the
// check after a recovery sends more at once.
func (r *streamClient) roundTrip(n int, tr *tracer) (t0, t1 time.Time, err error) {
	frames := make([]*trace.Frame, n)
	for i := range frames {
		frames[i] = r.gen.next()
	}
	ot := tr.begin()
	t0 = time.Now()
	for _, f := range frames {
		r.check.sentFrame(f)
		if err := r.stream.Send(f); err != nil {
			return t0, t0, fmt.Errorf("session %s: send frame %d: %w", r.id, f.K, err)
		}
	}
	sent := time.Now()
	for range frames {
		line, err := r.stream.Recv()
		if err != nil {
			return t0, t0, fmt.Errorf("session %s: reply stream ended after %d acks: %w", r.id, r.check.acked, err)
		}
		r.check.ack(line.K, line.Report, line.Error)
	}
	t1 = time.Now()
	if ot != nil {
		root := ot.add("client.roundTrip", -1, t0, t1)
		ot.add("client.Stream.Send", root, t0, sent)
		ot.add("client.Stream.Recv", root, sent, t1)
		ot.end()
	}
	return t0, t1, nil
}

// serveRig is one set-up of a serve_* workload: the server and its robots.
type serveRig struct {
	srv      *server
	stateDir string // "" when volatile
	robots   []*streamClient
	openMs   []float64 // stream open times of this set-up
}

// setUp is everything before the first timed frame: spawn → /readyz →
// create sessions → open streams → warm-up frames per session.
func setUpServe(e *env, bin string, durable bool, warmFrames int) (*serveRig, error) {
	rig := &serveRig{}
	if durable {
		dir, err := os.MkdirTemp(e.out, "state-")
		if err != nil {
			return nil, err
		}
		rig.stateDir = dir
	}
	srv, err := spawn(bin, rig.stateDir)
	if err != nil {
		rig.tearDown()
		return nil, err
	}
	rig.srv = srv
	c := client.New(srv.base)
	for i := 0; i < clients(); i++ {
		seed := e.seed*1000 + int64(i)
		gen, err := newFrameGen(seed)
		if err != nil {
			rig.tearDown()
			return nil, err
		}
		info, err := c.Create(context.Background(), api.CreateRequest{Robot: "khepera"})
		if err != nil {
			rig.tearDown()
			return nil, fmt.Errorf("create session: %w", err)
		}
		rig.robots = append(rig.robots, &streamClient{id: info.ID, seed: seed, gen: gen})
	}
	if err := rig.openStreams(); err != nil {
		rig.tearDown()
		return nil, err
	}
	if err := rig.lockstep(warmFrames); err != nil {
		rig.tearDown()
		return nil, err
	}
	return rig, nil
}

// lockstep takes every robot through n untimed one-frame round trips.
func (rig *serveRig) lockstep(n int) error {
	return rig.each(func(r *streamClient) error {
		for i := 0; i < n; i++ {
			if _, _, err := r.roundTrip(1, nil); err != nil {
				return err
			}
		}
		return nil
	})
}

// openStreams opens one binary-wire /frames stream per robot.
func (rig *serveRig) openStreams() error {
	c := client.New(rig.srv.base)
	for _, r := range rig.robots {
		t0 := time.Now()
		stream, err := c.Stream(context.Background(), r.id, true)
		if err != nil {
			return fmt.Errorf("session %s: open stream: %w", r.id, err)
		}
		rig.openMs = append(rig.openMs, float64(time.Since(t0))/float64(time.Millisecond))
		r.stream = stream
	}
	return nil
}

// each runs f for every robot on its own goroutine and returns the first
// error.
func (rig *serveRig) each(f func(*streamClient) error) error {
	errs := make([]error, len(rig.robots))
	var wg sync.WaitGroup
	for i, r := range rig.robots {
		wg.Add(1)
		go func(i int, r *streamClient) {
			defer wg.Done()
			errs[i] = f(r)
		}(i, r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (rig *serveRig) closeStreams() {
	for _, r := range rig.robots {
		if r.stream != nil {
			r.stream.Close()
			r.stream = nil
		}
	}
}

func (rig *serveRig) tearDown() {
	rig.closeStreams()
	if rig.srv != nil {
		rig.srv.kill()
	}
	if rig.stateDir != "" {
		os.RemoveAll(rig.stateDir)
	}
}

// drive is the timed phase: every robot in lockstep, a frame at a time,
// until the shared deadline. A robot that hits an error stops; its unsent share of
// the phase shows as missing throughput and the error as a failed check.
func (rig *serveRig) drive(phase time.Duration, tr *tracer) error {
	start := time.Now()
	stop := toggleTracing(tr, start, phase)
	defer stop()
	for _, r := range rig.robots {
		r.rec = newRecorder(start, 4000*int(phase/segment))
	}
	return rig.each(func(r *streamClient) error {
		for {
			t0, t1, err := r.roundTrip(1, tr)
			if err != nil {
				return err
			}
			if r.rec.add(t0, t1, 1) >= phase {
				return nil
			}
		}
	})
}

// recorders lists the robots' recorders of the last drive.
func (rig *serveRig) recorders() []*recorder {
	recs := make([]*recorder, len(rig.robots))
	for i, r := range rig.robots {
		recs[i] = r.rec
	}
	return recs
}

// restart SIGKILLs the durable server and starts a fresh one on the same
// state directory, n times, timing each from the spawn to /readyz with
// every session listed again. The last server stays up.
func (rig *serveRig) restart(bin string, n int) ([]float64, error) {
	want := len(rig.robots)
	var ms []float64
	for i := 0; i < n; i++ {
		rig.srv.kill()
		t0 := time.Now()
		srv, err := spawn(bin, rig.stateDir)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		rig.srv = srv
		list, err := client.New(srv.base).List(context.Background())
		if err != nil {
			return nil, fmt.Errorf("restart %d: list sessions: %w", i, err)
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
		if len(list) != want {
			return nil, fmt.Errorf("restart %d: %d sessions live, want %d", i, len(list), want)
		}
	}
	return ms, nil
}

// verifyRecovered checks the durability contract on the restarted server:
// per session acked ≤ recovered ≤ sent, and the next reports continue the
// uninterrupted in-process reference bit for bit.
func (rig *serveRig) verifyRecovered() error {
	c := client.New(rig.srv.base)
	for _, r := range rig.robots {
		st, err := c.Status(context.Background(), r.id)
		if err != nil {
			return fmt.Errorf("status %s: %w", r.id, err)
		}
		if st.FramesApplied < r.check.acked || st.FramesApplied > r.check.sent {
			return fmt.Errorf("session %s: recovered %d frames with %d acked, %d sent (want acked <= recovered <= sent)",
				r.id, st.FramesApplied, r.check.acked, r.check.sent)
		}
	}
	if err := rig.openStreams(); err != nil {
		return err
	}
	return rig.each(func(r *streamClient) error {
		// Lockstep left nothing unacked, so recovered = sent and the
		// generator is already at the next frame. The reference replays
		// the whole mission from the seed.
		ref, err := newReference()
		if err != nil {
			return err
		}
		gen, err := newFrameGen(r.seed)
		if err != nil {
			return err
		}
		for i := 0; i < r.check.sent+resumeFrames; i++ {
			if err := ref.step(gen.next()); err != nil {
				return err
			}
		}
		resumed := sessionCheck{acked: r.check.acked, sent: r.check.sent}
		live := r.check
		r.check = resumed
		if _, _, err := r.roundTrip(resumeFrames, nil); err != nil {
			return err
		}
		resumed, r.check = r.check, live
		if resumed.err != nil {
			return fmt.Errorf("session %s after recovery: %w", r.id, resumed.err)
		}
		for i, d := range resumed.digests {
			if d != ref.digests[live.sent+i] {
				return fmt.Errorf("session %s: report %d after recovery differs from the uninterrupted reference", r.id, live.sent+i)
			}
		}
		return nil
	})
}

// serverStats is what the traced run scrapes from the server under test.
type serverStats struct {
	trace    telemetry.TraceSnapshot
	counters map[string]int64
	numGC    float64
	heapMB   float64
}

func scrape(base string) (*serverStats, error) {
	var st serverStats
	raw, err := client.New(base).DebugTrace(context.Background())
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &st.trace); err != nil {
		return nil, err
	}
	var snap struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := getJSON(base+"/snapshot", &snap); err != nil {
		return nil, err
	}
	st.counters = snap.Metrics.Counters
	var vars struct {
		Memstats struct {
			NumGC     float64
			HeapAlloc float64
		} `json:"memstats"`
	}
	if err := getJSON(base+"/debug/vars", &vars); err != nil {
		return nil, err
	}
	st.numGC, st.heapMB = vars.Memstats.NumGC, vars.Memstats.HeapAlloc/(1<<20)
	return &st, nil
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// stageMs returns a server-side stage's p50 in milliseconds.
func stageMs(snap telemetry.TraceSnapshot, stage telemetry.Stage) float64 {
	return 1e3 * snap.Stages[stage.String()].P50
}

// healthzRTT is the loopback HTTP floor: the median round trip of an
// empty GET against the server under test.
func healthzRTT(base string) float64 {
	c := client.New(base)
	var ms []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := c.Healthy(context.Background()); err != nil {
			return 0
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(ms)
}

// twinRate measures the other durability setting's frames_per_s over a
// short phase, for store.persistence_overhead_pct.
func twinRate(e *env, bin string, durable bool) (float64, error) {
	rig, err := setUpServe(e, bin, durable, e.sizes.warmFrames/32)
	if err != nil {
		return 0, err
	}
	defer rig.tearDown()
	phase := min(e.phase, twinSeconds*time.Second)
	if err := rig.drive(phase, nil); err != nil {
		return 0, err
	}
	return reduce(int(phase/segment), false, rig.recorders()...).framesPerS, nil
}

func runServe(e *env) (*measurement, error) {
	durable := e.workload == "serve_durable"
	m := &measurement{clients: clients(), layer: map[string]float64{}}
	bin, err := buildServer(e)
	if err != nil {
		return nil, err
	}

	// At one commit barrier per frame, the volatile twin's warm-up would
	// make each durable set-up a quarter of a minute.
	warm := e.sizes.warmFrames
	if durable {
		warm /= 8
	}
	// Set up several times and keep the last; setup_s is their median.
	var rig *serveRig
	for i := 0; i < e.sizes.setups; i++ {
		if rig != nil {
			rig.tearDown()
		}
		t0 := time.Now()
		if rig, err = setUpServe(e, bin, durable, warm); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}
	defer func() { rig.tearDown() }()

	var before *serverStats
	if e.tr != nil {
		if before, err = scrape(rig.srv.base); err != nil {
			return nil, err
		}
	}
	pid := rig.srv.cmd.Process.Pid
	srvCPU0, err := childCPU(pid)
	if err != nil {
		return nil, err
	}
	ownCPU0 := selfCPU()
	rss := sampleRSS(pid)
	driveErr := rig.drive(e.phase, e.tr)
	m.check(driveErr)
	ownCPU := selfCPU() - ownCPU0
	srvCPU, err := childCPU(pid)
	if err != nil {
		return nil, err
	}
	srvCPU -= srvCPU0
	if m.peakRSSMB, err = rss.finish(); err != nil {
		return nil, err
	}
	// The volatile round trip is CPU on both sides of the socket: at
	// quiet speed. The durable one waits on the commit window: as
	// measured.
	m.wall = reduce(e.segments(), false, rig.recorders()...)
	m.stats = reduce(e.segments(), !durable, rig.recorders()...)

	if e.tr != nil {
		after, err := scrape(rig.srv.base)
		if err != nil {
			return nil, err
		}
		kframes := float64(m.wall.ops) / 1e3 // one frame per op
		snap := after.trace
		m.layer["fleet.queue_wait_ms"] = stageMs(snap, telemetry.StageQueueWait)
		m.layer["fleet.step_ms"] = stageMs(snap, telemetry.StageStep)
		m.layer["http.decode_ms"] = stageMs(snap, telemetry.StageDecode)
		m.layer["http.reply_ms"] = stageMs(snap, telemetry.StageReply)
		m.layer["http.stream_open_ms"] = median(rig.openMs)
		m.layer["http.healthz_rtt_ms"] = healthzRTT(rig.srv.base)
		m.layer["fleet.rejects"] = float64(after.counters["roboads_fleet_rejected_frames_total"] - before.counters["roboads_fleet_rejected_frames_total"])
		m.layer["fleet.workers"] = float64(runtime.NumCPU()) // serve leaves Workers at GOMAXPROCS
		m.layer["client.cpu_ms_per_kframe"] = 1e3 * ownCPU.Seconds() / kframes
		m.layer["proc.cpu_ms_per_kframe"] = 1e3 * srvCPU.Seconds() / kframes
		m.layer["proc.gc_cycles"] = after.numGC - before.numGC
		m.layer["proc.heap_mb"] = after.heapMB
		if durable {
			fsyncs := after.counters["roboads_store_wal_fsync_total"] - before.counters["roboads_store_wal_fsync_total"]
			m.layer["store.fsyncs_per_kframe"] = float64(fsyncs) / kframes
			if n, err := dirBytes(rig.stateDir); err == nil {
				total := 0
				for _, r := range rig.robots {
					total += r.check.acked
				}
				m.layer["store.bytes_per_frame"] = float64(n) / float64(total)
			}
		}
		// The op is one round trip. Its blocking path is the client's
		// send plus the server's stages, whose p50s the server sums itself.
		st := m.wall // as measured, like the spans and the twin
		path := e.tr.p50("client.Stream.Send")/1e3 + 1e3*snap.StageSumP50Seconds
		if st.p50Ms > 0 {
			m.layer["bench.unattributed_pct"] = 100 * (st.p50Ms - path) / st.p50Ms
		}
		twin, err := twinRate(e, bin, !durable)
		if err != nil {
			return nil, fmt.Errorf("durability twin: %w", err)
		}
		volatile, dur := st.framesPerS, twin
		if durable {
			volatile, dur = twin, st.framesPerS
		}
		if volatile > 0 {
			m.layer["store.persistence_overhead_pct"] = 100 * (1 - dur/volatile)
		}
	}

	// Recovery, durable only: checkpoint, then exactly sizes.tail frames, so
	// every restart replays the same, longest tail.
	if durable && driveErr == nil {
		c := client.New(rig.srv.base)
		for _, r := range rig.robots {
			if _, err := c.Checkpoint(context.Background(), r.id); err != nil {
				return nil, fmt.Errorf("checkpoint %s: %w", r.id, err)
			}
		}
		m.check(rig.lockstep(e.sizes.tail))
		rig.closeStreams()
		restarts, err := rig.restart(bin, e.sizes.recoveries)
		if err != nil {
			return nil, err
		}
		m.layer["store.recover_ms"] = median(restarts)
		if len(m.wrong) == 0 {
			m.check(rig.verifyRecovered())
		}
	}

	for _, r := range rig.robots {
		m.attempted += r.check.sent
		m.failed += r.check.sent - r.check.acked + r.check.failed
		_, err := r.check.verify()
		m.check(err)
	}
	return m, nil
}
