package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// cliRun is one verro process's figures.
type cliRun struct {
	wall, first, cpu time.Duration
	peakMB           float64
}

// measureCLI runs the verro binary back to back, one client, until d has
// passed, checking every output file against the reference digest.
func measureCLI(e *env, d time.Duration, log io.Writer) (*measurement, error) {
	m := newMeasurement()
	var wall, first, cpu, rss []float64
	start := time.Now()
	// Closed loop: a run starts only when it is expected to end within d,
	// so the measurement lasts about d however long one run takes.
	for i := 0; time.Since(start)+time.Duration(median(wall)*float64(time.Second)) < d; i++ {
		out := filepath.Join(e.dir, fmt.Sprintf("out-%d.vvf", i))
		m.attempted++
		r, err := runCLI(e.verro, e.cliArgs(out), out)
		if err != nil {
			m.failed++
			fmt.Fprintf(log, "perfbench: run %d: %v\n", i, err)
			os.Remove(out)
			continue
		}
		// A run whose output differs from the reference still ran: it is
		// timed, and counted as failed and incorrect.
		err = checkOutput(out, e.in.digest)
		os.Remove(out)
		if err != nil {
			m.failed++
			if errors.Is(err, errMismatch) {
				m.wrong++
			}
			fmt.Fprintf(log, "perfbench: run %d: %v\n", i, err)
		}
		wall = append(wall, r.wall.Seconds())
		first = append(first, r.first.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		rss = append(rss, r.peakMB)
	}
	elapsed := time.Since(start)
	if len(wall) == 0 {
		return nil, fmt.Errorf("no verro run completed out of %d", m.attempted)
	}
	m.set("run_p50_s", median(wall))
	m.set("frames_per_s", float64(len(wall)*e.in.frames)/elapsed.Seconds())
	m.set("cpu_s_per_run", median(cpu))
	m.set("peak_rss_mb", median(rss))
	m.set("first_window_s", median(first))
	m.samples["runs"] = len(wall)
	return m, nil
}

// cliArgs are the verro flags of the workload, writing to out.
func (e *env) cliArgs(out string) []string {
	args := []string{
		"-in", e.in.video, "-out", out,
		"-window", strconv.Itoa(e.w.window),
		"-seed", strconv.FormatInt(e.seed, 10),
	}
	if e.in.tracks != "" {
		args = append(args, "-tracks", e.in.tracks)
	}
	if e.w.eps > 0 {
		args = append(args, "-eps", strconv.FormatFloat(e.w.eps, 'g', -1, 64))
	}
	if e.w.workers > 0 {
		args = append(args, "-workers", strconv.Itoa(e.w.workers))
	}
	return args
}

// poll is how often runCLI samples a running verro process.
const poll = 5 * time.Millisecond

// runCLI runs one verro process to exit. first is when out first held
// bytes: the encoder buffers the header, so that is when the first
// sanitized window reached the file. The peak RSS is the process's VmHWM,
// sampled while it runs: the rusage of a child started by a large parent
// reports the parent's peak instead.
func runCLI(bin string, args []string, out string) (cliRun, error) {
	var r cliRun
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	tick := time.NewTicker(poll)
	defer tick.Stop()
	var err error
wait:
	for {
		select {
		case err = <-done:
			break wait
		case <-tick.C:
			if r.first == 0 {
				if fi, serr := os.Stat(out); serr == nil && fi.Size() > 0 {
					r.first = time.Since(start)
				}
			}
			if mb, serr := peakRSSMB(cmd.Process.Pid); serr == nil {
				r.peakMB = mb
			}
		}
	}
	r.wall = time.Since(start)
	if err != nil {
		return r, fmt.Errorf("verro: %v: %s", err, tail(&stderr))
	}
	if r.first == 0 {
		r.first = r.wall
	}
	if r.peakMB == 0 {
		return r, fmt.Errorf("verro exited before its memory could be read")
	}
	r.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	return r, nil
}

// median returns the middle of xs (the mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the last line-ish part of a process's captured stderr.
func tail(b *bytes.Buffer) string {
	s := b.Bytes()
	if len(s) > 512 {
		s = s[len(s)-512:]
	}
	return string(bytes.TrimSpace(s))
}
