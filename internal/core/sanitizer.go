package core

import (
	"fmt"
	"math/rand"
	"time"

	"verro/internal/detect"
	"verro/internal/inpaint"
	"verro/internal/keyframe"
	"verro/internal/ldp"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/par"
	"verro/internal/vid"
)

// Config is the end-to-end sanitizer configuration.
type Config struct {
	Phase1   Phase1Config
	Phase2   Phase2Config
	Keyframe keyframe.Config
	Inpaint  inpaint.Config
	// BackgroundStep subsamples frames feeding the temporal background
	// median; 0 means an automatic stride targeting ~40 samples (clamped so
	// the median stack never drops below 9 frames).
	BackgroundStep int
	// Seed drives all randomness in the run.
	Seed int64
	// Workers overrides the worker-pool size for this run (0 keeps the
	// process-wide setting: VERRO_WORKERS or GOMAXPROCS). All randomness is
	// drawn on the coordinating goroutine, so the sanitized output is
	// bit-identical at any worker count. The override is scoped to this run's
	// pool — concurrent Sanitize calls with different Workers never interfere.
	Workers int
	// Trace, when non-nil, collects a span per pipeline stage plus stage
	// counters and worker-pool gauges. Nil (the default) disables all
	// instrumentation at zero cost; tracing never perturbs the seeded output.
	Trace *obs.Trace
	// WindowFrames, when positive, runs the sanitizer as a bounded-memory
	// streaming pipeline processing at most WindowFrames frames per window;
	// 0 (the default) keeps the legacy whole-clip batch path. The two paths
	// produce bit-identical output for the same seed: all randomness is
	// drawn on the coordinator in an order independent of the windowing.
	// SanitizeMultiType drives its own per-class batch runs and ignores
	// this field.
	WindowFrames int
}

// DefaultConfig assembles the defaults of every stage.
func DefaultConfig() Config {
	return Config{
		Phase1:   DefaultPhase1Config(),
		Phase2:   DefaultPhase2Config(),
		Keyframe: keyframe.DefaultConfig(),
		Inpaint:  inpaint.DefaultConfig(),
		Seed:     1,
	}
}

// Validate rejects configurations whose privacy parameters are outside
// their mathematical domain. Sanitize calls it on entry so an invalid flip
// probability fails fast instead of surfacing after minutes of key-frame
// extraction and background reconstruction.
func (c Config) Validate() error {
	return c.Phase1.Validate()
}

// Result is the sanitizer output: the publishable synthetic video plus the
// diagnostics the evaluation harness consumes.
type Result struct {
	Synthetic *vid.Video
	// SyntheticTracks are the rendered synthetic objects; they exist for
	// utility evaluation and never leave the video owner.
	SyntheticTracks *motio.TrackSet
	Phase1          *Phase1Result
	Phase2          *Phase2Result
	KeyframeResult  *keyframe.Result
	// Epsilon is the achieved ε-Object Indistinguishability level.
	Epsilon float64
	// Timings of the two phases (Table 3).
	Phase1Time, Phase2Time time.Duration
	// PreprocessTime covers key-frame extraction and background
	// reconstruction, reported separately as in the paper.
	PreprocessTime time.Duration
	// Windows is the per-window privacy ledger of a streaming run (nil for
	// the batch path): one entry per render window, whose integer picked
	// key-frame counts sum to len(Phase1.Picked) and whose ε entries
	// recompose to exactly Epsilon. See DESIGN.md §2g.
	Windows []WindowSpend
}

// WindowSpend attributes Phase I privacy budget to one streaming render
// window: the picked key frames falling inside [Start, Start+Frames) and
// the ε they account for. The ledger is exact, not approximate — budget is
// apportioned by integer key-frame counts, and the total is recomputed as
// K·ln((2−f)/f) over the summed count, the same closed form ldp.Epsilon
// uses, so the recomposed total equals the batch ε bit for bit.
type WindowSpend struct {
	Start, Frames int
	Picked        int
	Epsilon       float64
}

// autoSegmentCfg resolves the MaxSegmentLen auto-clamp for a clip of the
// given length: 0 means auto (cap segments at ~1/20 of the video so static
// scenes still produce enough key frames), negative disables the cap. Both
// the batch and streaming drivers resolve through here so the segmentation
// they run is identical.
func autoSegmentCfg(kfCfg keyframe.Config, clipLen int) keyframe.Config {
	switch {
	case kfCfg.MaxSegmentLen == 0:
		kfCfg.MaxSegmentLen = clipLen / 20
		if kfCfg.MaxSegmentLen < 1 {
			kfCfg.MaxSegmentLen = 1
		}
	case kfCfg.MaxSegmentLen < 0:
		kfCfg.MaxSegmentLen = 0
	}
	return kfCfg
}

// runPhase1Stage runs Phase I with its span bookkeeping: presence-vector
// reduction, the randomized mechanism, and the post-hoc counters (picked
// key frames; randomized-response flips as the Hamming distance between the
// budgeted vectors B* and the published vectors R). Shared verbatim by the
// batch and streaming drivers — Phase I consumes the rng stream, so having
// one implementation is what keeps the two paths' draws aligned.
func runPhase1Stage(tracks *motio.TrackSet, clipLen int, kf *keyframe.Result, cfg Phase1Config, rng *rand.Rand, root *obs.Span) (*Phase1Result, error) {
	p1Span := root.Child("phase1")
	defer p1Span.End()
	full := PresenceVectors(tracks, clipLen)
	reduced, err := ReduceToKeyFrames(full, kf.KeyFrames)
	if err != nil {
		return nil, err
	}
	p1, err := RunPhase1(reduced, kf.KeyFrames, cfg, rng)
	if err != nil {
		return nil, fmt.Errorf("core: phase 1: %w", err)
	}
	p1Span.Add(obs.CKeyFramesPicked, int64(len(p1.Picked)))
	var flips int64
	for i := range p1.Output {
		flips += int64(ldp.Hamming(p1.Optimal[i], p1.Output[i]))
	}
	p1Span.Add(obs.CRRBitsFlipped, flips)
	return p1, nil
}

// Sanitize runs the full VERRO pipeline: key-frame extraction, background
// reconstruction, Phase I and Phase II. The input video and tracks are not
// modified. With cfg.WindowFrames > 0 the run is delegated to the windowed
// streaming driver (see SanitizeStream), whose output is bit-identical.
func Sanitize(v *vid.Video, tracks *motio.TrackSet, cfg Config) (*Result, error) {
	if v == nil || v.Len() == 0 {
		return nil, fmt.Errorf("core: empty input video")
	}
	if tracks == nil {
		return nil, fmt.Errorf("core: nil track set")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.WindowFrames > 0 {
		return sanitizeWindowed(v, tracks, cfg)
	}
	// A scoped pool (not the former global SetWorkers save/restore, which was
	// non-reentrant) so concurrent Sanitize calls with different Workers each
	// get their own size. Workers <= 0 falls through to the process default.
	pool := par.NewPool(cfg.Workers)
	cfg.Trace.AttachPool(pool)
	root := cfg.Trace.Root()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Preprocessing: segmentation/key frames and background scene(s).
	// MaxSegmentLen == 0 means auto: cap segments at ~1/20 of the video so
	// static scenes still produce enough key frames for the optimizer and
	// the Phase II interpolation (pure Algorithm 2 would otherwise collapse
	// a static video into a single segment). Negative disables the cap.
	preStart := time.Now() //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output
	kfCfg := autoSegmentCfg(cfg.Keyframe, v.Len())
	kfSpan := root.Child("keyframes")
	kf, err := keyframe.ExtractRT(v, kfCfg, obs.Runtime{Pool: pool, Span: kfSpan})
	kfSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: key frames: %w", err)
	}
	var scenes inpaint.Scenes
	if !cfg.Phase2.SkipRender {
		inSpan := root.Child("inpaint")
		step := detect.Stride(cfg.BackgroundStep, v.Len())
		scenes, err = inpaint.ExtractScenesRT(v, tracks, step, cfg.Inpaint, obs.Runtime{Pool: pool, Span: inSpan})
		inSpan.End()
		if err != nil {
			return nil, fmt.Errorf("core: background: %w", err)
		}
	}
	preTime := time.Since(preStart) //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output

	// Phase I.
	p1Start := time.Now() //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output
	p1, err := runPhase1Stage(tracks, v.Len(), kf, cfg.Phase1, rng, root)
	if err != nil {
		return nil, err
	}
	p1Time := time.Since(p1Start) //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output

	// Phase II.
	p2Start := time.Now() //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output
	p2Span := root.Child("phase2")
	p2, err := RunPhase2RT(p1, kf, tracks, scenes, v.W, v.H, v.Len(), cfg.Phase2, rng,
		obs.Runtime{Pool: pool, Span: p2Span})
	p2Span.End()
	if err != nil {
		return nil, fmt.Errorf("core: phase 2: %w", err)
	}
	p2Time := time.Since(p2Start) //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output

	if p2.Video != nil {
		p2.Video.Name = v.Name + "-verro"
		p2.Video.FPS = v.FPS
		p2.Video.Moving = v.Moving
	}

	return &Result{
		Synthetic:       p2.Video,
		SyntheticTracks: p2.Tracks,
		Phase1:          p1,
		Phase2:          p2,
		KeyframeResult:  kf,
		Epsilon:         p1.Epsilon,
		Phase1Time:      p1Time,
		Phase2Time:      p2Time,
		PreprocessTime:  preTime,
	}, nil
}
