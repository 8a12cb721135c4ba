// Command verro sanitizes a video: it reads a .vvf container (and
// optionally a tracks CSV), runs the VERRO pipeline, and writes the
// synthetic video. Without a tracks file it runs the built-in
// detection+tracking preprocessing first.
//
// Usage:
//
//	verro -in video.vvf [-tracks gt.csv] -out synthetic.vvf
//	      [-f 0.1] [-eps 0] [-seed 1] [-png 0] [-laplace 0] [-no-opt]
//	      [-workers N] [-window N] [-trace out.json] [-pprof addr]
//
// Either -f (flip probability) or -eps (total ε budget; converted to f
// using the number of key frames Phase I picks) sets the privacy level;
// -eps wins when it is positive.
//
// -trace writes a machine-readable run report (span tree per pipeline
// stage, stage counters, worker-pool gauges; schema in DESIGN.md) and
// prints a human-readable summary. -pprof serves net/http/pprof and expvar
// (including live worker-pool stats) on the given address, e.g.
// -pprof localhost:6060.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"verro"
	"verro/internal/obs"
	"verro/internal/par"
)

// options collects the run parameters; flags bind to the fields directly.
type options struct {
	in, tracksPath, out string
	f, eps              float64
	seed                int64
	pngN, gifN          int
	laplace             float64
	noOpt, multi        bool
	workers             int
	window              int
	tracePath           string
	pprofAddr           string
}

func main() {
	var opt options
	flag.StringVar(&opt.in, "in", "", "input .vvf video (required)")
	flag.StringVar(&opt.tracksPath, "tracks", "", "object tracks CSV (optional; detected when empty)")
	flag.StringVar(&opt.out, "out", "synthetic.vvf", "output .vvf video")
	flag.Float64Var(&opt.f, "f", 0.1, "flip probability in (0,1]")
	flag.Float64Var(&opt.eps, "eps", 0, "total epsilon budget (overrides -f when > 0)")
	flag.Int64Var(&opt.seed, "seed", 1, "random seed")
	flag.IntVar(&opt.pngN, "png", 0, "dump every Nth synthetic frame as PNG next to -out (0 = none)")
	flag.Float64Var(&opt.laplace, "laplace", 0, "epsilon' for Laplace noise on optimization statistics (0 = off)")
	flag.BoolVar(&opt.noOpt, "no-opt", false, "disable key-frame optimization (use all key frames)")
	flag.BoolVar(&opt.multi, "multitype", false, "sanitize each object class independently (Section 5)")
	flag.IntVar(&opt.gifN, "gif", 0, "also export an animated GIF sampling every Nth frame (0 = none)")
	flag.IntVar(&opt.workers, "workers", 0, "worker-pool size for the hot CV loops (0 = VERRO_WORKERS or GOMAXPROCS; output is identical at any setting)")
	flag.IntVar(&opt.window, "window", 0, "stream the pipeline in windows of N frames, bounding memory to O(N) (0 = one whole-clip window; output is identical at any setting)")
	flag.StringVar(&opt.tracePath, "trace", "", "write a JSON run report (span tree + counters; schema in DESIGN.md)")
	flag.StringVar(&opt.pprofAddr, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	flag.Parse()
	if opt.in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if opt.workers > 0 {
		par.SetWorkers(opt.workers)
	}
	if opt.pprofAddr != "" {
		// The user asked for diagnostics explicitly; an unbindable address is
		// an error worth stopping for, not one to discover minutes later.
		if err := obs.ServeDebug(opt.pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, "verro:", err)
			os.Exit(1)
		}
	}
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "verro:", err)
		os.Exit(1)
	}
}

// run opens the input and sanitizes it through runStream; -multitype takes
// the batch path of runMultiType instead.
func run(opt options) error {
	if opt.multi {
		return runMultiType(opt)
	}
	src, err := verro.OpenVideoSource(opt.in)
	if err != nil {
		return err
	}
	defer src.Close()
	return runStream(opt, src)
}

// runStream is the bounded-memory file-to-file path: the input decodes
// from disk in windows of -window frames (0: one whole-clip window), the
// sanitizer streams, and the output encodes to disk in windows, so peak
// memory is O(window) regardless of clip length. The written file is
// byte-identical at any window. With tracks given the input decodes once;
// without, twice (analysis with the detector's background sampling, then
// detection) — the ε→f conversion reuses the analysis and decodes nothing.
func runStream(opt options, src verro.StreamSource) error {
	meta := src.Meta()
	window := "whole clip"
	if opt.window > 0 {
		window = fmt.Sprint(opt.window)
	}
	fmt.Printf("input: %s %dx%d %d frames (streaming, window %s)\n", meta.Name, meta.W, meta.H, meta.Frames, window)

	// One trace covers the whole run: detection+tracking (when it runs) and
	// the sanitizer stages all land in the same span tree.
	var trace *verro.Trace
	if opt.tracePath != "" {
		trace = verro.NewTrace("verro")
	}
	cfg := sanitizeConfig(opt, trace)
	cfg.WindowFrames = opt.window

	var a *verro.Analysis
	tracks, err := loadTracks(opt)
	if err != nil {
		return err
	}
	if tracks != nil {
		a, err = verro.Analyze(src, cfg)
	} else {
		pcfg := verro.DefaultPipelineConfig()
		pcfg.Trace = trace
		pcfg.WindowFrames = opt.window
		a, tracks, err = verro.AnalyzeAndTrackStream(src, pcfg, cfg)
		if err == nil {
			fmt.Printf("tracked %d objects\n", tracks.Len())
		}
	}
	if err != nil {
		return err
	}
	if opt.eps > 0 {
		f, k, err := verro.FlipForEpsilon(a, tracks, cfg, opt.eps)
		if err != nil {
			return err
		}
		cfg.Phase1.F = f
		fmt.Printf("eps=%.3f over %d picked key frames -> f=%.4f\n", opt.eps, k, f)
	}

	sink, err := verro.NewVideoSink(opt.out, verro.StreamOutputMeta(meta))
	if err != nil {
		return err
	}
	wrote := false
	defer func() {
		// Close is idempotent, so this is a no-op after the success path
		// (Render closes the sink itself). On any error return between here
		// and there it releases the descriptor and removes the truncated
		// output — a half-written .vvf must not survive where a caller could
		// mistake it for a sanitized artifact.
		sink.Close()
		if !wrote {
			os.Remove(opt.out)
		}
	}()
	res, err := verro.Render(a, tracks, cfg, sink, 0)
	if err != nil {
		return err
	}
	wrote = true
	fmt.Printf("sanitized: eps=%.3f, phase1=%v phase2=%v\n",
		res.Epsilon, res.Phase1Time.Round(1e6), res.Phase2Time.Round(1e6))
	fmt.Printf("%d/%d objects retained over %d windows\n",
		res.SyntheticTracks.Len(), tracks.Len(), len(res.Windows))
	fmt.Printf("wrote %s (%.2f MB)\n", opt.out, float64(sink.Written())/(1<<20))
	return finish(opt, trace)
}

// runMultiType is the batch path behind -multitype: SanitizeMultiType runs
// Phase I per object class over the decoded clip, which the windowed
// driver does not compose with.
func runMultiType(opt options) error {
	if opt.window > 0 {
		return fmt.Errorf("-multitype drives per-class batch runs and does not compose with -window")
	}
	video, err := verro.ReadVideo(opt.in)
	if err != nil {
		return err
	}
	// Video.String() prints dimensions and frame count only — metadata the
	// operator already knows, not pixel or trajectory data.
	//lint:allow privleak %v formats the video's size summary, not its content
	fmt.Printf("input: %v\n", video)

	var trace *verro.Trace
	if opt.tracePath != "" {
		trace = verro.NewTrace("verro")
	}
	tracks, err := loadTracks(opt)
	if err != nil {
		return err
	}
	if tracks == nil {
		pcfg := verro.DefaultPipelineConfig()
		pcfg.Trace = trace
		tracks, err = verro.DetectAndTrack(video, pcfg)
		if err != nil {
			return err
		}
		fmt.Printf("tracked %d objects\n", tracks.Len())
	}

	cfg := sanitizeConfig(opt, trace)
	if opt.eps > 0 {
		// Convert the ε budget to a flip probability: dry-run Phase I at a
		// neutral f to learn how many key frames get picked, then invert.
		// The dry run is untraced so its stages don't double-count.
		dry := cfg
		dry.Phase2.SkipRender = true
		dry.Trace = nil
		dryRes, err := verro.Sanitize(video, tracks, dry)
		if err != nil {
			return fmt.Errorf("dry run: %w", err)
		}
		k := len(dryRes.Phase1.Picked)
		conv, err := verro.FlipProbability(k, opt.eps)
		if err != nil {
			return err
		}
		cfg.Phase1.F = conv
		fmt.Printf("eps=%.3f over %d picked key frames -> f=%.4f\n", opt.eps, k, conv)
	}

	res, err := verro.SanitizeMultiType(video, tracks, cfg)
	if err != nil {
		return err
	}
	classes := make([]string, 0, len(res.PerClass))
	for name := range res.PerClass {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	for _, name := range classes {
		p1 := res.PerClass[name]
		fmt.Printf("class %-11s eps=%.3f over %d picked key frames\n", name, p1.Epsilon, len(p1.Picked))
	}
	fmt.Printf("%d/%d objects retained\n", res.SyntheticTracks.Len(), tracks.Len())
	n, err := verro.WriteVideo(opt.out, res.Synthetic)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%.2f MB)\n", opt.out, float64(n)/(1<<20))
	return finish(opt, trace)
}

// loadTracks reads -tracks, or returns nil tracks when detection must run.
func loadTracks(opt options) (*verro.TrackSet, error) {
	if opt.tracksPath == "" {
		fmt.Println("no tracks given; running detection + tracking...")
		return nil, nil
	}
	tracks, err := verro.LoadTracks(opt.tracksPath)
	if err != nil {
		return nil, err
	}
	fmt.Printf("tracks: %d objects from %s\n", tracks.Len(), opt.tracksPath)
	return tracks, nil
}

// sanitizeConfig is the sanitizer config the flags ask for.
func sanitizeConfig(opt options, trace *verro.Trace) verro.Config {
	cfg := verro.DefaultConfig()
	cfg.Seed = opt.seed
	cfg.Phase1.F = opt.f
	cfg.Phase1.Optimize = !opt.noOpt
	cfg.Phase1.LaplaceEps = opt.laplace
	cfg.Trace = trace
	return cfg
}

// finish writes the optional exports of the written output and the trace.
func finish(opt options, trace *verro.Trace) error {
	if opt.pngN > 0 || opt.gifN > 0 {
		// Read the output back for the optional exports. The decoded frames
		// are the run's own published output, not raw footage — the taint
		// analyzer only sees a video decode.
		synthetic, err := verro.ReadVideo(opt.out)
		if err != nil {
			return err
		}
		if opt.pngN > 0 {
			dir := opt.out + "-frames"
			count := 0
			for k := 0; k < synthetic.Len(); k += opt.pngN {
				path := filepath.Join(dir, fmt.Sprintf("frame%05d.png", k))
				//lint:allow privleak frames decoded from our own sanitized output file
				if err := synthetic.Frame(k).WritePNG(path); err != nil {
					return err
				}
				count++
			}
			fmt.Printf("wrote %d PNG frames to %s\n", count, dir)
		}
		if opt.gifN > 0 {
			gifPath := opt.out + ".gif"
			//lint:allow privleak GIF re-encodes our own sanitized output file
			if err := synthetic.WriteGIF(gifPath, opt.gifN); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", gifPath)
		}
	}
	if trace != nil {
		if err := trace.WriteFile(opt.tracePath); err != nil {
			return err
		}
		fmt.Printf("wrote trace to %s\n%s", opt.tracePath, trace.Report().Summary())
	}
	return nil
}
