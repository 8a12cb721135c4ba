package verro

import (
	"fmt"

	"verro/internal/core"
	"verro/internal/detect"
	"verro/internal/img"
	"verro/internal/obs"
	"verro/internal/par"
	"verro/internal/scene"
	"verro/internal/stream"
	"verro/internal/track"
	"verro/internal/vid"
)

// PipelineConfig tunes the detection→tracking preprocessing that turns raw
// video into the sensitive-object tracks VERRO sanitizes.
type PipelineConfig struct {
	// Detector selects the detection algorithm.
	Detector DetectorKind
	// Tracker tunes the SORT-style tracker.
	Tracker track.Config
	// BackgroundStep subsamples frames for the median background model of
	// the background-subtraction detector; 0 means an automatic stride.
	BackgroundStep int
	// Style is the scene style used to train the HOG+SVM detector; it is
	// only consulted when Detector == DetectorHOGSVM.
	Style scene.Style
	// Seed drives detector training randomness.
	Seed int64
	// Workers overrides the worker-pool size for this call (0 keeps the
	// process-wide setting: VERRO_WORKERS or GOMAXPROCS). The output is
	// bit-identical at any worker count; only wall-clock time changes. The
	// override is scoped to this call's pool — concurrent DetectAndTrack
	// calls with different Workers never interfere.
	Workers int
	// Trace, when non-nil, collects detection/tracking stage spans, counters
	// and worker-pool gauges. Nil disables all instrumentation at zero cost;
	// tracing never perturbs the output.
	Trace *Trace
	// WindowFrames, when positive, runs detection and tracking as a
	// bounded-memory streaming pass over at most WindowFrames frames at a
	// time; 0 keeps the whole-clip batch path. Both paths produce
	// bit-identical tracks for the same configuration.
	WindowFrames int
}

// DetectorKind selects a detection algorithm.
type DetectorKind int

// Available detectors.
const (
	// DetectorBackgroundSub is the fast background-subtraction detector,
	// appropriate for static cameras.
	DetectorBackgroundSub DetectorKind = iota
	// DetectorHOGSVM is the sliding-window HOG+SVM detector (the paper's
	// detector family); slower but camera-motion tolerant.
	DetectorHOGSVM
)

// DefaultPipelineConfig uses background subtraction with default tracking.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Detector: DetectorBackgroundSub,
		Tracker:  track.DefaultConfig(),
		Style:    scene.StyleSquare,
		Seed:     1,
	}
}

// DetectAndTrack runs detection and tracking over the video and returns
// the recovered object tracks — the preprocessing stage of Figure 2. With
// cfg.WindowFrames > 0 the run is delegated to the windowed streaming
// driver (see DetectAndTrackStream), whose output is bit-identical.
func DetectAndTrack(v *Video, cfg PipelineConfig) (*TrackSet, error) {
	if v == nil || v.Len() == 0 {
		return nil, fmt.Errorf("verro: empty video")
	}
	if cfg.WindowFrames > 0 {
		return DetectAndTrackStream(stream.NewSliceSource(vid.MetaOf(v), v.Frames), cfg)
	}
	// A scoped pool (not the former global SetWorkers save/restore, which was
	// non-reentrant) so concurrent calls with different Workers each get
	// their own size. Workers <= 0 falls through to the process default.
	pool := par.NewPool(cfg.Workers)
	cfg.Trace.AttachPool(pool)
	root := cfg.Trace.Root()
	var det detect.Detector
	if cfg.Detector == DetectorBackgroundSub {
		step := detect.Stride(cfg.BackgroundStep, v.Len())
		bgSpan := root.Child("background")
		bg, err := detect.MedianBackgroundRT(v.Frames, step, obs.Runtime{Pool: pool, Span: bgSpan})
		bgSpan.End()
		if err != nil {
			return nil, fmt.Errorf("verro: background model: %w", err)
		}
		det = detect.NewBGSubtractor(bg)
	} else {
		var err error
		if det, err = modelDetector(cfg, pool); err != nil {
			return nil, err
		}
	}
	tracks, err := track.RunRT(v.Frames, det, cfg.Tracker, obs.Runtime{Pool: pool, Span: root})
	if err != nil {
		return nil, fmt.Errorf("verro: tracking: %w", err)
	}
	return tracks, nil
}

// DetectAndTrackStream is DetectAndTrack over a bounded-memory frame
// source. The background-subtraction detector needs its median background
// before any detection, so that path makes two passes: a sampling pass
// retaining only the ~40 strided frames the temporal median consumes, a
// Reset, then a windowed detect-and-track pass. The HOG+SVM detector is
// model-driven and needs a single pass. Tracks are bit-identical to the
// batch path: the sample stack, the per-frame detections, and the tracker
// step order are all exactly those of DetectAndTrack on the decoded clip.
// AnalyzeAndTrackStream folds the sampling pass into the sanitizer's
// analysis pass instead.
func DetectAndTrackStream(src stream.Source, cfg PipelineConfig) (*TrackSet, error) {
	meta := src.Meta()
	if meta.Frames == 0 {
		return nil, fmt.Errorf("verro: empty video")
	}
	pool := par.NewPool(cfg.Workers)
	cfg.Trace.AttachPool(pool)
	rt := obs.Runtime{Pool: pool, Span: cfg.Trace.Root()}
	if cfg.Detector != DetectorBackgroundSub {
		det, err := modelDetector(cfg, pool)
		if err != nil {
			return nil, err
		}
		return trackPass(src, det, cfg, rt)
	}
	bgSpan := rt.Span.Child("background")
	samples := &core.SampleStage{Step: detect.Stride(cfg.BackgroundStep, meta.Frames)}
	err := stream.Run(src, cfg.WindowFrames, countDecoded(bgSpan), samples)
	var det detect.Detector
	if err == nil {
		det, err = medianDetector(samples.Samples, obs.Runtime{Pool: pool, Span: bgSpan})
	}
	bgSpan.End()
	if err != nil {
		return nil, fmt.Errorf("verro: background model: %w", err)
	}
	if err := rewind(src); err != nil {
		return nil, err
	}
	return trackPass(src, det, cfg, rt)
}

// AnalyzeAndTrackStream is the track-less streaming front end in two decode
// passes: the sanitizer's analysis pass (Analyze under cfg) with the
// background-subtraction detector's median sampling riding along, then the
// detection-and-tracking pass. The sampling shares the analysis' own
// background samples when pcfg.BackgroundStep and cfg.BackgroundStep
// resolve to the same stride, and runs as a separate stage on the same pass
// otherwise. The tracks are bit-identical to DetectAndTrackStream's and the
// Analysis to Analyze's, ready for FlipForEpsilon and Render.
func AnalyzeAndTrackStream(src StreamSource, pcfg PipelineConfig, cfg Config) (*Analysis, *TrackSet, error) {
	meta := src.Meta()
	if meta.Frames == 0 {
		return nil, nil, fmt.Errorf("verro: empty video")
	}
	pool := par.NewPool(pcfg.Workers)
	pcfg.Trace.AttachPool(pool)
	rt := obs.Runtime{Pool: pool, Span: pcfg.Trace.Root()}
	var det detect.Detector
	var own *core.SampleStage
	var extra []stream.Stage
	if pcfg.Detector == DetectorBackgroundSub {
		step := detect.Stride(pcfg.BackgroundStep, meta.Frames)
		if cfg.Phase2.SkipRender || step != detect.Stride(cfg.BackgroundStep, meta.Frames) {
			own = &core.SampleStage{Step: step}
			extra = append(extra, own)
		}
	} else {
		var err error
		if det, err = modelDetector(pcfg, pool); err != nil {
			return nil, nil, err
		}
	}
	a, err := core.Analyze(src, cfg, extra...)
	if err != nil {
		return nil, nil, err
	}
	if err := rewind(src); err != nil {
		return nil, nil, err
	}
	if det == nil {
		samples := a.BackgroundSamples()
		if own != nil {
			samples = own.Samples
		}
		bgSpan := rt.Span.Child("background")
		det, err = medianDetector(samples, obs.Runtime{Pool: pool, Span: bgSpan})
		bgSpan.End()
		if err != nil {
			return nil, nil, fmt.Errorf("verro: background model: %w", err)
		}
	}
	tracks, err := trackPass(src, det, pcfg, rt)
	if err != nil {
		return nil, nil, err
	}
	return a, tracks, nil
}

// modelDetector builds a detector that needs no pass over the clip: the
// HOG+SVM pedestrian model. Background subtraction is built from samples
// by medianDetector instead.
func modelDetector(cfg PipelineConfig, pool *par.Pool) (detect.Detector, error) {
	if cfg.Detector != DetectorHOGSVM {
		return nil, fmt.Errorf("verro: unknown detector %d", cfg.Detector)
	}
	d, err := detect.NewPedestrianDetector(cfg.Style, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("verro: build detector: %w", err)
	}
	d.RT = obs.Runtime{Pool: pool}
	return d, nil
}

// medianDetector builds the background-subtraction detector from the
// strided sample stack: the median with step 1 over exactly the frames the
// batch MedianBackgroundRT would stride onto, hence the identical model.
func medianDetector(samples []*img.Image, rt obs.Runtime) (detect.Detector, error) {
	bg, err := detect.MedianBackgroundRT(samples, 1, rt)
	if err != nil {
		return nil, err
	}
	return detect.NewBGSubtractor(bg), nil
}

// rewind resets the source for the detection pass.
func rewind(src stream.Source) error {
	if err := src.Reset(); err != nil {
		return fmt.Errorf("verro: rewind for detection pass: %w", err)
	}
	return nil
}

// trackPass is the detection pass: a rewound source driven through the
// detector and tracker in windows of cfg.WindowFrames, its decode counted
// on the detect span.
func trackPass(src stream.Source, det detect.Detector, cfg PipelineConfig, rt obs.Runtime) (*TrackSet, error) {
	runner := track.NewRunnerRT(det, cfg.Tracker, rt)
	if err := stream.Run(src, cfg.WindowFrames, countDecoded(runner.DetectSpan()), runner); err != nil {
		return nil, fmt.Errorf("verro: tracking: %w", err)
	}
	tracks, err := runner.Finish()
	if err != nil {
		return nil, fmt.Errorf("verro: tracking: %w", err)
	}
	return tracks, nil
}

// countDecoded is the stream.Run window hook of a decode pass: it counts
// the frames each window pulls from the source as frames_decoded on span.
func countDecoded(span *obs.Span) func(stream.Window) func() {
	return func(w stream.Window) func() {
		span.Add(obs.CFramesDecoded, int64(len(w.Frames)))
		return nil
	}
}
