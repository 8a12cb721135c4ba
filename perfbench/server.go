package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"verro/internal/store"
)

// verrod is a running verrod process.
type verrod struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	// drained closes once the process's stdout reached EOF, that is, once
	// it has exited.
	drained chan struct{}
}

// startVerrod starts verrod on a free local port with the workload's
// window and worker settings, rate limiting off, and as many job slots as
// the benchmark has clients.
func startVerrod(bin, root, data string, w workload) (*verrod, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-data", data,
		"-max-jobs", strconv.Itoa(clients),
		"-workers", strconv.Itoa(w.workers),
		"-window", strconv.Itoa(w.window))
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &verrod{
		cmd:     cmd,
		client:  &http.Client{Transport: &http.Transport{}},
		drained: make(chan struct{}),
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on http://"); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, out) // the scanner stopped on an error; keep the pipe drained
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case <-d.drained:
		return nil, fmt.Errorf("verrod exited before serving: %v", cmd.Wait())
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("verrod did not start serving within 30s (stop: %v)", d.stop())
	}
}

// stop terminates verrod and waits for it to exit.
func (d *verrod) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // the wait below reports how it ended
		<-d.drained
	}
	err := d.cmd.Wait()
	// verrod exits cleanly on SIGTERM once its handler is installed, which
	// happens just after it announces the address; before that the signal
	// ends it, which is as good a stop.
	if ee, ok := err.(*exec.ExitError); ok {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

// userHZ is the clock-tick rate of the times in /proc on Linux.
const userHZ = 100

// cpuSeconds reads the process's user+system CPU time from /proc.
func (d *verrod) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3, so
	// utime and stime (fields 14 and 15) are at 11 and 12.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("unexpected /proc stat format")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat format")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat format")
	}
	return (utime + stime) / userHZ, nil
}

// peakRSSMB reads a live process's peak resident set (VmHWM) from /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// jobStats is one job's client-side timeline.
type jobStats struct {
	// admit is the POST /jobs round trip.
	admit time.Duration
	// run is POST to the SSE end event; first is POST to the first render
	// window event, the job's first durable checkpoint.
	run, first time.Duration
	// gap sums, over consecutive render window events, the time between
	// them that the later window's own duration does not cover.
	gap time.Duration
	// finalize is the last render window event to the end event: the final
	// re-encode, fsync, rename and manifest save.
	finalize    time.Duration
	checkpoints int
}

// loopResult is what a run of closed-loop clients produced.
type loopResult struct {
	jobs    []jobStats
	refused int
	elapsed time.Duration
}

// jobTimeout bounds one job so a stuck server cannot hang the benchmark.
const jobTimeout = 90 * time.Second

// jobLoop runs the clients closed loop against verrod until d has passed:
// each client submits its next job once the previous one ended and its
// output was fetched and checked. Refusals (429) count as failures.
func (e *env) jobLoop(d time.Duration, m *measurement, log io.Writer) loopResult {
	var (
		mu  sync.Mutex
		res loopResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs := 0; errs < 3 && time.Since(start) < d; {
				st, refused, err := e.daemon.job(e)
				mu.Lock()
				m.attempted++
				switch {
				case errors.Is(err, errMismatch):
					// The job ran to the end: time it, but count it as
					// failed and the result as incorrect.
					m.failed++
					m.wrong++
					res.jobs = append(res.jobs, st)
					fmt.Fprintf(log, "perfbench: job: %v\n", err)
				case err != nil:
					m.failed++
					errs++
					fmt.Fprintf(log, "perfbench: job: %v\n", err)
				case refused:
					m.failed++
					res.refused++
					fmt.Fprintln(log, "perfbench: job refused (429)")
				default:
					res.jobs = append(res.jobs, st)
					errs = 0
				}
				mu.Unlock()
				if refused {
					time.Sleep(100 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// measureServer drives verrod with the job loop and reads the server
// process's CPU time around it and its peak RSS after it.
func measureServer(e *env, d time.Duration, log io.Writer) (*measurement, error) {
	m := newMeasurement()
	cpu0, err := e.daemon.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res := e.jobLoop(d, m, log)
	cpu1, err := e.daemon.cpuSeconds()
	if err != nil {
		return nil, err
	}
	// The high-water mark covers verrod's whole life, which before the
	// measurement is an idle server.
	rss, err := peakRSSMB(e.daemon.cmd.Process.Pid)
	if err != nil {
		return nil, fmt.Errorf("peak RSS of verrod: %w", err)
	}
	if len(res.jobs) == 0 {
		return nil, fmt.Errorf("no verrod job completed out of %d", m.attempted)
	}
	var run, first []float64
	for _, j := range res.jobs {
		run = append(run, j.run.Seconds())
		first = append(first, j.first.Seconds())
	}
	n := float64(len(res.jobs))
	m.set("run_p50_s", median(run))
	m.set("frames_per_s", n*float64(e.in.frames)/res.elapsed.Seconds())
	m.set("cpu_s_per_run", (cpu1-cpu0)/n)
	m.set("peak_rss_mb", rss)
	m.set("first_window_s", median(first))
	m.samples["jobs"] = len(res.jobs)
	return m, nil
}

// job submits one path job, follows its events to the end, fetches the
// output and the manifest, and checks both against the reference.
func (d *verrod) job(e *env) (st jobStats, refused bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	body, err := json.Marshal(map[string]any{"input": e.in.video, "tracks": e.in.tracks, "seed": e.seed})
	if err != nil {
		return st, false, err
	}
	start := time.Now()
	var m store.Manifest
	code, err := d.call(ctx, http.MethodPost, "/jobs", bytes.NewReader(body), decodeJSON(&m))
	st.admit = time.Since(start)
	if code == http.StatusTooManyRequests {
		return st, true, nil
	}
	if err != nil {
		return st, false, err
	}
	var state string
	_, err = d.call(ctx, http.MethodGet, "/jobs/"+m.ID+"/events", nil, func(r io.Reader) (err error) {
		state, err = readEvents(r, start, &st)
		return err
	})
	if err != nil {
		return st, false, err
	}
	if state != store.StateDone {
		return st, false, fmt.Errorf("job %s ended %s", m.ID, state)
	}
	_, err = d.call(ctx, http.MethodGet, "/jobs/"+m.ID+"/output", nil, func(r io.Reader) error {
		return checkDigest(r, e.in.digest)
	})
	if err == nil {
		_, err = d.call(ctx, http.MethodGet, "/jobs/"+m.ID, nil, decodeJSON(&m))
	}
	if err == nil {
		err = checkLedger(&m)
	}
	if err != nil {
		return st, false, fmt.Errorf("job %s: %w", m.ID, err)
	}
	return st, false, nil
}

// call makes one request and hands a 2xx response body to read.
func (d *verrod) call(ctx context.Context, method, path string, body io.Reader, read func(io.Reader) error) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, body)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp.StatusCode, read(resp.Body)
}

func decodeJSON(into any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(into) }
}

// sseEvent is the part of an obs.Event the client reads.
type sseEvent struct {
	Span       string `json:"span"`
	Parent     string `json:"parent"`
	DurationNS int64  `json:"duration_ns"`
	State      string `json:"state"`
}

// readEvents reads a job's Server-Sent Events until the end event, fills
// in the timeline, and returns the job's terminal state.
func readEvents(r io.Reader, start time.Time, st *jobStats) (string, error) {
	var last time.Time
	var kind, data string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			kind = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok {
			data = v
			continue
		}
		if line != "" || (kind != "span_end" && kind != "end") {
			continue
		}
		now := time.Now()
		var ev sseEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		if kind == "end" {
			st.run = now.Sub(start)
			if !last.IsZero() {
				st.finalize = now.Sub(last)
			}
			return ev.State, nil
		}
		if ev.Parent == "phase2" && strings.HasPrefix(ev.Span, "window@") {
			if last.IsZero() {
				st.first = now.Sub(start)
			} else if gap := now.Sub(last) - time.Duration(ev.DurationNS); gap > 0 {
				st.gap += gap
			}
			last = now
			st.checkpoints++
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	return "", fmt.Errorf("events ended without an end event")
}

// checkLedger verifies that the per-window privacy ledger recomposes the
// job's totals: frames, picked key frames and ε.
func checkLedger(m *store.Manifest) error {
	frames, picked, eps := 0, 0, 0.0
	for _, w := range m.Ledger {
		frames += w.Frames
		picked += w.Picked
		eps += w.Epsilon
	}
	if frames != m.Frames || picked != m.Picked || math.Abs(eps-m.Epsilon) > 1e-9*math.Max(1, m.Epsilon) {
		return fmt.Errorf("%w: ledger sums to %d frames, %d picked, ε %g; manifest says %d, %d, %g",
			errMismatch, frames, picked, eps, m.Frames, m.Picked, m.Epsilon)
	}
	return nil
}
