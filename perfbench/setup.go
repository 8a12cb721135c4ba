package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"verro"
	"verro/internal/scene"
	"verro/internal/stream"
	"verro/internal/vid"
)

// workload is one way of driving the pipeline.
type workload struct {
	name   string
	preset string
	// tracks passes the generated ground truth; without it the pipeline
	// runs background-subtraction detection and tracking first.
	tracks bool
	// eps > 0 sets a total ε budget, converted to f on a dry run.
	eps     float64
	window  int
	workers int // 0 = the program's default (GOMAXPROCS)
	// server runs verrod with two closed-loop clients instead of the CLI.
	server bool
}

var workloads = []workload{
	{name: "static-tracks", preset: "MOT03", tracks: true, window: 64},
	{name: "moving-detect-eps", preset: "MOT06", eps: 5, window: 64},
	{name: "verrod-jobs", preset: "MOT03", tracks: true, window: 32, workers: 1, server: true},
}

// clients is the closed-loop client count of the server workload; with
// verrod's -max-jobs equal to it, no submission should ever be refused.
const clients = 2

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// input is a workload's generated input and its reference output digest.
type input struct {
	video  string // .vvf path
	tracks string // ground-truth CSV path; "" when the workload detects
	frames int
	digest string // hex SHA-256 of the reference sanitized .vvf
}

// params are the sanitizer settings a workload passes to verro or verrod.
func (w workload) params(in *input, seed int64) runParams {
	return runParams{seed: seed, window: w.window, workers: w.workers, eps: w.eps, tracks: in.tracks}
}

// runParams are the settings of one pipeline run.
type runParams struct {
	seed            int64
	window, workers int
	eps             float64
	tracks          string
}

// env is a workload set up and ready to measure.
type env struct {
	w      workload
	seed   int64
	dir    string
	in     *input
	verro  string  // CLI binary
	daemon *verrod // running server, for the server workload
	closed bool
}

// close stops the server, if any. Idempotent.
func (e *env) close() error {
	if e.closed || e.daemon == nil {
		e.closed = true
		return nil
	}
	e.closed = true
	return e.daemon.stop()
}

// setup builds the binaries, generates the inputs, computes the reference
// digest and (for the server workload) starts verrod, rounds times over;
// it returns the environment of the last round and each round's time.
// Every round must reproduce the same inputs and digest.
func setup(o options, w workload, dir string, rounds int) (*env, []float64, error) {
	bin := filepath.Join(o.work, "bin")
	var times []float64
	var e *env
	for r := 0; r < rounds; r++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		next := &env{w: w, seed: o.seed, dir: dir, verro: filepath.Join(bin, "verro")}
		if err := goBuild(o.root, next.verro, "./cmd/verro"); err != nil {
			return nil, nil, err
		}
		if w.server {
			if err := goBuild(o.root, filepath.Join(bin, "verrod"), "./cmd/verrod"); err != nil {
				return nil, nil, err
			}
		}
		in, err := prepare(w, o.seed, o.scale, filepath.Join(dir, "input"))
		if err != nil {
			return nil, nil, err
		}
		next.in = in
		if w.server {
			d, err := startVerrod(filepath.Join(bin, "verrod"), o.root, filepath.Join(dir, fmt.Sprintf("verrod-data-%d", r)), w)
			if err != nil {
				return nil, nil, err
			}
			next.daemon = d
		}
		times = append(times, time.Since(start).Seconds())
		if e != nil && e.in.digest != in.digest {
			next.close()
			return nil, nil, fmt.Errorf("seed %d gave reference digests %s and %s in two set-ups", o.seed, e.in.digest, in.digest)
		}
		e = next
	}
	return e, times, nil
}

// goBuild builds one command of the repository into out.
func goBuild(root, out, pkg string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
	}
	return nil
}

// prepare generates the workload's input from the seed into dir (the
// video, and the ground-truth tracks when the workload uses them) and
// computes the reference digest of its sanitized output.
func prepare(w workload, seed int64, scale float64, dir string) (*input, error) {
	p, err := scene.PresetByName(w.preset)
	if err != nil {
		return nil, err
	}
	if scale < 1 {
		p = p.Scaled(scale)
	}
	p.Seed = seed
	g, err := scene.Generate(p)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &input{video: filepath.Join(dir, p.Name+".vvf"), frames: g.Video.Len()}
	if w.tracks {
		in.tracks = filepath.Join(dir, p.Name+"-gt.csv")
		if err := verro.SaveTracks(in.tracks, g.Truth); err != nil {
			return nil, err
		}
	}
	// Encoding the input file and the reference run both only read the
	// generated clip, so they overlap.
	written := make(chan error, 1)
	go func() {
		_, err := vid.WriteFile(in.video, g.Video)
		written <- err
	}()
	in.digest, err = reference(g.Video, w.params(in, seed))
	if werr := <-written; werr != nil {
		return nil, werr
	}
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return in, nil
}

// reference sanitizes the in-memory clip in one window spanning the whole
// clip and returns the digest of the encoded output. The workloads run the
// decoded file in smaller windows, so a match also checks that windowing,
// worker count and the codec round trip leave the bytes unchanged.
func reference(v *verro.Video, p runParams) (string, error) {
	meta := vid.MetaOf(v)
	p.window = meta.Frames
	p.workers = 0
	h := sha256.New()
	sink, err := vid.NewWriter(h, verro.StreamOutputMeta(meta))
	if err != nil {
		return "", err
	}
	if _, err := sanitize(stream.NewSliceSource(meta, v.Frames), p, nil, sink); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sanitize makes the public calls the verro CLI makes on its -window path:
// load the tracks or detect and track, convert ε to f on a render-free dry
// run when eps is set, then sanitize into sink. It returns the wall time of
// the dry run, which no trace span covers.
func sanitize(src stream.Source, p runParams, trace *verro.Trace, sink stream.Sink) (time.Duration, error) {
	var tracks *verro.TrackSet
	var err error
	if p.tracks != "" {
		tracks, err = verro.LoadTracks(p.tracks)
	} else {
		pcfg := verro.DefaultPipelineConfig()
		pcfg.Trace = trace
		pcfg.WindowFrames = p.window
		pcfg.Workers = p.workers
		tracks, err = verro.DetectAndTrackStream(src, pcfg)
		if err == nil {
			err = src.Reset()
		}
	}
	if err != nil {
		return 0, fmt.Errorf("tracks: %w", err)
	}
	cfg := verro.DefaultConfig()
	cfg.Seed = p.seed
	cfg.Trace = trace
	cfg.WindowFrames = p.window
	cfg.Workers = p.workers
	var dry time.Duration
	if p.eps > 0 {
		d := cfg
		d.Phase2.SkipRender = true
		d.Trace = nil
		start := time.Now()
		res, err := verro.SanitizeStream(src, tracks, d, nil)
		if err == nil {
			err = src.Reset()
		}
		dry = time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("dry run: %w", err)
		}
		if cfg.Phase1.F, err = verro.FlipProbability(len(res.Phase1.Picked), p.eps); err != nil {
			return 0, err
		}
	}
	if _, err := verro.SanitizeStream(src, tracks, cfg, sink); err != nil {
		return 0, err
	}
	return dry, nil
}

// checkOutput reports whether the file at path has the reference digest.
func checkOutput(path, digest string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return checkDigest(f, digest)
}

// errMismatch marks an output that was produced but differs from the
// reference: a wrong result, as opposed to a run that failed.
var errMismatch = errors.New("output does not match the reference")

// checkDigest reads r to the end and compares its SHA-256 with digest.
func checkDigest(r io.Reader, digest string) error {
	h := sha256.New()
	if _, err := io.Copy(h, r); err != nil {
		return err
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != digest {
		return fmt.Errorf("%w: digest %.12s, reference %.12s", errMismatch, got, digest)
	}
	return nil
}
