package core

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"verro/internal/detect"
	"verro/internal/img"
	"verro/internal/inpaint"
	"verro/internal/keyframe"
	"verro/internal/ldp"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/par"
	"verro/internal/stream"
	"verro/internal/vid"
)

// The bounded-memory streaming driver. SanitizeStream runs the same VERRO
// pipeline as Sanitize, but never holds the whole clip: Analyze pulls the
// input through one pass in windows of cfg.WindowFrames frames, retaining
// only clip-length *metadata* (per-frame HSV histograms, pan offsets) plus
// the ~40 strided background samples detect.AutoStep bounds, and Render
// plans from that analysis and renders window by window straight into a
// sink without decoding again.
//
// Bit-identity with the batch path is by construction, not by luck:
//
//   - every per-frame analysis quantity (histogram, column profile, strided
//     sample) is computed by the same pure helper the batch path calls, in
//     the same frame order;
//   - every random draw (Phase I randomized response and Laplace noise,
//     Phase II assignment and palette offset) happens on the coordinator
//     between the two passes, via the same shared planPhase2/runPhase1Stage
//     code, in an order independent of the windowing;
//   - rendering a planned frame is pure, and the windowed VVF writer emits
//     the same byte stream as the batch encoder for any append granularity.
//
// Peak live memory is O(WindowFrames + samples), which the memory-ceiling
// test in stream_mem_test.go holds roughly flat as the clip grows.

// histStage accumulates the per-frame HSV histograms Algorithm 2 needs —
// a few hundred bytes per frame, so clip-length retention stays metadata-
// sized while the pixels flow through unretained.
type histStage struct {
	cfg   keyframe.Config
	pool  *par.Pool
	hists []*img.HSVHist
}

func (s *histStage) Name() string { return "hist" }
func (s *histStage) Overlap() int { return 0 }
func (s *histStage) Flush() error { return nil }
func (s *histStage) Process(w stream.Window) error {
	hs, err := keyframe.FrameHists(w.FreshFrames(), s.cfg, s.pool)
	if err != nil {
		return err
	}
	s.hists = append(s.hists, hs...)
	return nil
}

// SampleStage retains every Step-th frame (with its clip index) for a
// temporal background median — the `k % Step == 0` stride the batch
// reconstruction walks, bounded at ~40 samples by detect.AutoStep whatever
// the clip length. The analysis pass runs one for background
// reconstruction; background-subtraction detection shares it when its
// stride is the same, or rides its own along on the same pass.
type SampleStage struct {
	Step    int
	Samples []*img.Image
	Indices []int
}

func (s *SampleStage) Name() string { return "bgsample" }
func (s *SampleStage) Overlap() int { return 0 }
func (s *SampleStage) Flush() error { return nil }
func (s *SampleStage) Process(w stream.Window) error {
	for i, f := range w.FreshFrames() {
		k := w.FreshStart() + i
		if k%s.Step == 0 {
			s.Samples = append(s.Samples, f)
			s.Indices = append(s.Indices, k)
		}
	}
	return nil
}

// panStage integrates per-frame pan offsets for moving-camera clips. Each
// pairwise shift needs the previous frame's column profile; the stage
// declares Overlap() == 1 and recomputes that profile from the re-presented
// overlap frame instead of retaining pixels across windows, so its state
// between windows is just the integer offsets.
type panStage struct {
	maxShift int
	offsets  []int
}

func (s *panStage) Name() string { return "pan" }
func (s *panStage) Overlap() int { return 1 }
func (s *panStage) Flush() error { return nil }
func (s *panStage) Process(w stream.Window) error {
	profiles := make([][]float64, len(w.Frames))
	for i, f := range w.Frames {
		profiles[i] = inpaint.ColumnProfile(f)
	}
	for i := w.Fresh; i < len(w.Frames); i++ {
		if w.Start+i == 0 {
			s.offsets = append(s.offsets, 0)
			continue
		}
		shift := inpaint.BestShift(profiles[i-1], profiles[i], s.maxShift)
		s.offsets = append(s.offsets, s.offsets[len(s.offsets)-1]+shift)
	}
	return nil
}

// windowHook builds a stream.Run per-window hook that opens a child span
// per window under parent and lands the window counters, giving traces a
// per-window progress observable on both the analysis and render passes.
func windowHook(parent *obs.Span) func(stream.Window) func() {
	return func(w stream.Window) func() {
		parent.Add(obs.CWindows, 1)
		parent.Add(obs.CWindowFrames, int64(len(w.Frames)))
		child := parent.Child(fmt.Sprintf("window@%d", w.Start))
		return child.End
	}
}

// decodeHook is windowHook for a pass that pulls its windows from a
// source: it also counts the frames pulled as frames_decoded.
func decodeHook(parent *obs.Span) func(stream.Window) func() {
	hook := windowHook(parent)
	return func(w stream.Window) func() {
		parent.Add(obs.CFramesDecoded, int64(len(w.Frames)))
		return hook(w)
	}
}

// aheadSource decodes the analysis pass one window ahead: a goroutine
// pulls window k+1 from the source while the stages process window k on the
// coordinator. The hand-off channel is unbuffered, so at most two windows
// are live — the one being processed and the one being decoded or waiting
// to be taken. Stages, hooks and counters still run on the coordinator in
// window order, so the pass computes exactly what a sequential one does.
//
// Only stream.Run drives it, and Run calls only Meta and Next; the source
// itself is touched by the goroutine alone until stop returns, after which
// the caller may Reset or Close it.
type aheadSource struct {
	meta    stream.Meta
	fetched chan fetched
	done    chan struct{}
	span    *obs.Span
}

// fetched is one Next result handed from the decode goroutine.
type fetched struct {
	frames []*img.Image
	start  int
	err    error
}

// decodeAhead starts decoding src in windows of budget frames; the
// coordinator's waits for them accumulate as span's decode_wait_ns.
func decodeAhead(src stream.Source, budget int, span *obs.Span) *aheadSource {
	a := &aheadSource{
		meta:    src.Meta(),
		fetched: make(chan fetched),
		done:    make(chan struct{}),
		span:    span,
	}
	go a.decode(src, budget)
	return a
}

// decode is the decode goroutine: it pulls windows until the source ends
// or fails, or until stop. It closes fetched on exit.
func (a *aheadSource) decode(src stream.Source, budget int) {
	defer close(a.fetched)
	for {
		select {
		case <-a.done:
			return
		default:
		}
		frames, start, err := src.Next(budget)
		select {
		case a.fetched <- fetched{frames, start, err}:
		case <-a.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// Meta implements stream.Source.
func (a *aheadSource) Meta() stream.Meta { return a.meta }

// Next implements stream.Source: it takes the window the goroutine decoded
// (its budget was fixed at decodeAhead). Past the end it reports io.EOF.
func (a *aheadSource) Next(int) ([]*img.Image, int, error) {
	stop := a.span.Stopwatch(obs.CDecodeWaitNS)
	f, ok := <-a.fetched
	stop()
	if !ok {
		return nil, a.meta.Frames, io.EOF
	}
	return f.frames, f.start, f.err
}

// Reset implements stream.Source; the analysis pass never rewinds.
func (a *aheadSource) Reset() error { return fmt.Errorf("core: decode-ahead source cannot rewind") }

// Close implements stream.Source; the caller owns the underlying source.
func (a *aheadSource) Close() error { return nil }

// stop ends the decode goroutine and waits for it to exit: it finishes a
// Next already under way, and a window it decoded that the pass did not
// take is dropped. Called on every path out of the pass, so the source is
// the caller's again when Analyze returns.
func (a *aheadSource) stop() {
	close(a.done)
	for range a.fetched {
	}
}

// windowSpend attributes Phase I budget to the render window [lo, hi): the
// picked key frames falling inside it, at ln((2−f)/f) each. Summing the
// integer Picked fields over all windows recovers len(p1.Picked) exactly,
// and K·ln((2−f)/f) over that sum is the same closed form ldp.Epsilon
// evaluates — so the ledger recomposes to the batch ε with no float drift.
func windowSpend(p1 *Phase1Result, lo, hi int) WindowSpend {
	picked := 0
	for _, j := range p1.Picked {
		if k := p1.KeyFrames[j]; k >= lo && k < hi {
			picked++
		}
	}
	return WindowSpend{
		Start:   lo,
		Frames:  hi - lo,
		Picked:  picked,
		Epsilon: float64(picked) * math.Log((2-p1.F)/p1.F),
	}
}

// SanitizeStream runs the VERRO pipeline over a frame source in bounded
// windows of cfg.WindowFrames frames (<= 0 means one whole-clip window),
// writing the synthetic video to sink window by window. The output is
// bit-identical to Sanitize on the decoded clip with the same cfg. The
// returned Result carries everything the batch Result does except
// Synthetic/Phase2.Video (the frames went to the sink, which only the
// caller can replay), plus the per-window privacy ledger in Windows.
//
// sink is closed on success once all frames are appended; on error the
// caller owns whatever cleanup its sink needs. Under cfg.Phase2.SkipRender
// no frames are produced and sink may be nil (a non-nil sink is left
// untouched).
func SanitizeStream(src stream.Source, tracks *motio.TrackSet, cfg Config, sink stream.Sink) (*Result, error) {
	return SanitizeStreamFrom(src, tracks, cfg, sink, 0)
}

// SanitizeStreamFrom is SanitizeStream with a resumable window cursor:
// rendering starts at startFrame (which must sit on a window boundary) and
// only frames from there on are appended to sink — the caller owns the
// earlier frames, typically in a checkpointed staging file a previous,
// killed run left behind. Everything up to rendering reruns in full: the
// analysis pass, Phase I and the Phase II plan are recomputed from the same
// seed and consume the rng stream in exactly the batch order, so the frames
// rendered for [startFrame, end) — and the returned ledger, synthetic
// tracks and ε — are bit-identical to the corresponding slice of an
// uninterrupted run. Windows before the cursor contribute their geometry
// (not their pixels) to the synthetic track fold and their ledger entries
// are recomputed, so the Result does not depend on where the run was cut.
//
// It is Analyze followed by Render; callers that need the analysis between
// the two (an ε→f conversion, detection sharing the decode pass) call them
// directly.
func SanitizeStreamFrom(src stream.Source, tracks *motio.TrackSet, cfg Config, sink stream.Sink, startFrame int) (*Result, error) {
	meta := src.Meta()
	if meta.Frames == 0 {
		return nil, fmt.Errorf("core: empty input video")
	}
	if err := checkRender(meta, tracks, cfg, sink, startFrame); err != nil {
		return nil, err
	}
	a, err := Analyze(src, cfg)
	if err != nil {
		return nil, err
	}
	return Render(a, tracks, cfg, sink, startFrame)
}

// Analysis is everything the sanitizer needs from a clip's pixels, taken in
// one windowed pass over the source: the per-frame HSV histograms (and the
// key frames segmented from them, computed on first use and cached), the
// strided background samples with their clip indices, and the pan offsets
// of a moving camera. Render works from an Analysis alone and never decodes,
// so a run with tracks decodes its input once, however many times the ε→f
// conversion consults the key frames.
//
// Render consumes the background samples; an Analysis renders once.
type Analysis struct {
	// Meta is the analyzed source's metadata.
	Meta stream.Meta

	kfCfg keyframe.Config // segmentation config, MaxSegmentLen resolved
	hists []*img.HSVHist  // dropped once segmented
	kf    *keyframe.Result
	bg    *SampleStage // nil for a render-free analysis
	pan   *panStage    // nil unless rendering a moving-camera clip
	spent bool         // Render has consumed bg's samples
	pool  *par.Pool
	root  *obs.Span
	// prep is the wall time of the analysis pass plus key-frame
	// segmentation, the analysis share of Result.PreprocessTime.
	prep time.Duration
}

// Analyze runs the analysis pass: one windowed sweep over src (of
// cfg.WindowFrames frames a window) collecting the clip-length metadata
// preprocessing needs while the pixels flow through unretained, except the
// ~40 strided background samples detect.AutoStep bounds. Under
// cfg.Phase2.SkipRender only the histograms are taken: the result can
// convert ε to f but not render. extra stages ride along on the same pass,
// which is how detection shares the decode. The source is decoded one
// window ahead on a goroutine (aheadSource) that has exited by the time
// Analyze returns, whatever the outcome, so the caller may Reset or Close
// src straight away. Traced under an "analysis" span with one window@N
// child per window; the span's frames_decoded counter is the number of
// frames pulled from src and its decode_wait_ns the time the stages sat
// waiting for them.
func Analyze(src stream.Source, cfg Config, extra ...stream.Stage) (*Analysis, error) {
	meta := src.Meta()
	if meta.Frames == 0 {
		return nil, fmt.Errorf("core: empty input video")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pool := par.NewPool(cfg.Workers)
	cfg.Trace.AttachPool(pool)
	a := &Analysis{
		Meta:  meta,
		kfCfg: autoSegmentCfg(cfg.Keyframe, meta.Frames),
		pool:  pool,
		root:  cfg.Trace.Root(),
	}
	hist := &histStage{cfg: a.kfCfg, pool: pool}
	stages := []stream.Stage{hist}
	if !cfg.Phase2.SkipRender {
		a.bg = &SampleStage{Step: detect.Stride(cfg.BackgroundStep, meta.Frames)}
		stages = append(stages, a.bg)
		if meta.Moving {
			a.pan = &panStage{maxShift: inpaint.DefaultPanShift}
			stages = append(stages, a.pan)
		}
	}
	stages = append(stages, extra...)
	err := timed(&a.prep, func() error {
		span := a.root.Child("analysis")
		defer span.End()
		ahead := decodeAhead(src, cfg.WindowFrames, span)
		defer ahead.stop()
		return stream.Run(ahead, cfg.WindowFrames, decodeHook(span), stages...)
	})
	if err != nil {
		return nil, fmt.Errorf("core: analysis pass: %w", err)
	}
	a.hists = hist.hists
	return a, nil
}

// BackgroundSamples returns the strided frames the analysis retained for
// the temporal background median, taken every
// detect.Stride(cfg.BackgroundStep, Meta.Frames) frames; nil for a
// render-free analysis or once Render has consumed them.
func (a *Analysis) BackgroundSamples() []*img.Image {
	if a.bg == nil {
		return nil
	}
	return a.bg.Samples
}

// keyFrames segments the histograms into key frames on first use (under a
// "keyframes" span of the analysis trace) and caches the result.
func (a *Analysis) keyFrames() (*keyframe.Result, error) {
	if a.kf != nil {
		return a.kf, nil
	}
	err := timed(&a.prep, func() error {
		span := a.root.Child("keyframes")
		defer span.End()
		kf, err := keyframe.SegmentHistsRT(a.hists, a.kfCfg, obs.Runtime{Pool: a.pool, Span: span})
		if err != nil {
			return fmt.Errorf("core: key frames: %w", err)
		}
		a.kf, a.hists = kf, nil
		return nil
	})
	return a.kf, err
}

// keyframesFit rejects a cfg that segments key frames differently from
// the analysis.
func (a *Analysis) keyframesFit(cfg Config) error {
	if autoSegmentCfg(cfg.Keyframe, a.Meta.Frames) != a.kfCfg {
		return fmt.Errorf("core: analysis was built under a different key-frame config")
	}
	return nil
}

// fits reports why cfg cannot render from this analysis: the key frames
// must be segmented under the same config, and a rendering run needs the
// background samples taken at its stride, not yet consumed.
func (a *Analysis) fits(cfg Config) error {
	if err := a.keyframesFit(cfg); err != nil {
		return err
	}
	if cfg.Phase2.SkipRender {
		return nil
	}
	switch {
	case a.bg == nil:
		return fmt.Errorf("core: analysis was built render-free; it holds no background samples")
	case a.spent:
		return fmt.Errorf("core: analysis already rendered; its background samples are gone")
	case a.bg.Step != detect.Stride(cfg.BackgroundStep, a.Meta.Frames):
		return fmt.Errorf("core: analysis sampled the background every %d frames, config asks for %d",
			a.bg.Step, detect.Stride(cfg.BackgroundStep, a.Meta.Frames))
	}
	return nil
}

// scenes reconstructs the background model(s) from the analysis samples
// with the objects masked out, then drops the samples so the render pass's
// live set is the plan plus one window.
func (a *Analysis) scenes(tracks *motio.TrackSet, cfg inpaint.Config, rt obs.Runtime) (inpaint.Scenes, error) {
	samples, indices := a.bg.Samples, a.bg.Indices
	a.bg.Samples, a.bg.Indices, a.spent = nil, nil, true
	if a.pan != nil {
		return inpaint.BuildMovingBackgroundSamplesRT(
			a.Meta.W, a.Meta.H, a.pan.offsets, samples, indices, tracks, cfg, rt)
	}
	bg, err := inpaint.StaticBackgroundSamplesRT(a.Meta.W, a.Meta.H, samples, indices, tracks, cfg, rt)
	if err != nil {
		return nil, err
	}
	return inpaint.NewStaticScenes(bg), nil
}

// FlipForEpsilon converts a total ε budget to the flip probability that
// spends it, ε = K·ln((2−f)/f), where K is the number of key frames Phase I
// picks for these tracks under cfg. It runs Phase I alone, untraced, on the
// analysis' cached key frames with a fresh rng seeded from cfg.Seed — the
// picks a full render-free SanitizeStream dry run would make, without its
// decode and histogram pass. The analysis is left intact for Render.
func FlipForEpsilon(a *Analysis, tracks *motio.TrackSet, cfg Config, eps float64) (f float64, picked int, err error) {
	if a == nil {
		return 0, 0, fmt.Errorf("core: nil analysis")
	}
	if tracks == nil {
		return 0, 0, fmt.Errorf("core: nil track set")
	}
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	if err := a.keyframesFit(cfg); err != nil {
		return 0, 0, err
	}
	kf, err := a.keyFrames()
	if err != nil {
		return 0, 0, err
	}
	p1, err := runPhase1Stage(tracks, a.Meta.Frames, kf, cfg.Phase1, rand.New(rand.NewSource(cfg.Seed)), nil)
	if err != nil {
		return 0, 0, err
	}
	f, err = ldp.FlipProbability(len(p1.Picked), eps)
	return f, len(p1.Picked), err
}

// checkRender rejects a run whose arguments cannot render: no tracks, an
// invalid privacy config, a missing sink, or a resume cursor off the
// window grid.
func checkRender(meta stream.Meta, tracks *motio.TrackSet, cfg Config, sink stream.Sink, startFrame int) error {
	if tracks == nil {
		return fmt.Errorf("core: nil track set")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !cfg.Phase2.SkipRender && sink == nil {
		return fmt.Errorf("core: nil sink for rendering run")
	}
	window := windowBudget(cfg, meta.Frames)
	if startFrame < 0 || startFrame > meta.Frames ||
		(startFrame != meta.Frames && startFrame%window != 0) {
		return fmt.Errorf("core: resume cursor %d is not a window boundary (window %d, %d frames)",
			startFrame, window, meta.Frames)
	}
	return nil
}

// windowBudget is the render window budget: cfg.WindowFrames, or the whole
// clip when that is <= 0.
func windowBudget(cfg Config, frames int) int {
	if cfg.WindowFrames <= 0 {
		return frames
	}
	return cfg.WindowFrames
}

// Render is the sanitizer after the analysis pass: key frames, background
// reconstruction, Phase I, the Phase II plan, and the window-by-window
// render into sink from startFrame on (see SanitizeStreamFrom for the
// cursor contract). cfg must be the config the analysis was taken under up
// to its privacy parameters — the same Keyframe and BackgroundStep, and a
// rendering run needs an analysis built for rendering; Phase1 (an f from
// FlipForEpsilon, say), Phase2, Inpaint, Seed and WindowFrames are free.
// The worker pool is the one Analyze sized; Render's spans go under
// cfg.Trace. Result.PreprocessTime covers the analysis pass, key-frame
// segmentation and background reconstruction.
func Render(a *Analysis, tracks *motio.TrackSet, cfg Config, sink stream.Sink, startFrame int) (*Result, error) {
	if a == nil {
		return nil, fmt.Errorf("core: nil analysis")
	}
	meta := a.Meta
	if err := checkRender(meta, tracks, cfg, sink, startFrame); err != nil {
		return nil, err
	}
	if err := a.fits(cfg); err != nil {
		return nil, err
	}
	pool := a.pool
	cfg.Trace.AttachPool(pool)
	root := cfg.Trace.Root()
	rng := rand.New(rand.NewSource(cfg.Seed))

	kf, err := a.keyFrames()
	if err != nil {
		return nil, err
	}
	var scenes inpaint.Scenes
	var bgTime time.Duration
	if !cfg.Phase2.SkipRender {
		err := timed(&bgTime, func() error {
			inSpan := root.Child("inpaint")
			defer inSpan.End()
			var err error
			scenes, err = a.scenes(tracks, cfg.Inpaint, obs.Runtime{Pool: pool, Span: inSpan})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("core: background: %w", err)
		}
	}

	// Phase I — small data, identical helper and rng order to the batch path.
	var p1 *Phase1Result
	var p1Time time.Duration
	err = timed(&p1Time, func() error {
		var err error
		p1, err = runPhase1Stage(tracks, meta.Frames, kf, cfg.Phase1, rng, root)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Phase II: consume the remaining rng draws into a pure render plan,
	// then render window by window into the sink.
	var p2 *Phase2Result
	var ledger []WindowSpend
	var p2Time time.Duration
	out := sink
	if cfg.Phase2.SkipRender {
		out = nil
	}
	err = timed(&p2Time, func() error {
		p2Span := root.Child("phase2")
		defer p2Span.End()
		plan, err := planPhase2(p1, kf, tracks, meta.W, meta.H, meta.Frames, cfg.Phase2, rng)
		if err != nil {
			return fmt.Errorf("core: phase 2: %w", err)
		}
		asm := newPhase2Assembler(plan)
		budget := windowBudget(cfg, meta.Frames)
		hook := windowHook(p2Span)
		for lo := 0; lo < meta.Frames; lo += budget {
			hi := min(lo+budget, meta.Frames)
			if hi <= startFrame {
				// Window already rendered and persisted by the run being
				// resumed: re-fold its geometry so the synthetic tracks come
				// out identical, recompute its ledger entry, and leave its
				// pixels to the caller's checkpointed staging. No window span
				// opens — SSE progress starts at the resume cursor.
				for i, fr := range plan.geometryRange(lo, hi) {
					asm.add(lo+i, fr)
				}
				ledger = append(ledger, windowSpend(p1, lo, hi))
				continue
			}
			post := hook(stream.Window{Start: lo, Frames: make([]*img.Image, hi-lo), Last: hi == meta.Frames})
			rendered, err := plan.renderRange(scenes, lo, hi, obs.Runtime{Pool: pool, Span: p2Span})
			if err != nil {
				post()
				return err
			}
			frames := make([]*img.Image, 0, len(rendered))
			for i, fr := range rendered {
				asm.add(lo+i, fr)
				if fr.frame != nil {
					frames = append(frames, fr.frame)
				}
			}
			if out != nil {
				if err := out.Append(frames); err != nil {
					post()
					return fmt.Errorf("core: sink: %w", err)
				}
			}
			ledger = append(ledger, windowSpend(p1, lo, hi))
			post()
		}
		p2Span.Add(obs.CFramesRendered, int64(meta.Frames-startFrame))
		p2 = asm.finish(obs.Runtime{Pool: pool, Span: p2Span})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		if err := timed(&p2Time, out.Close); err != nil {
			return nil, fmt.Errorf("core: sink: %w", err)
		}
	}

	return &Result{
		SyntheticTracks: p2.Tracks,
		Phase1:          p1,
		Phase2:          p2,
		KeyframeResult:  kf,
		Epsilon:         p1.Epsilon,
		Phase1Time:      p1Time,
		Phase2Time:      p2Time,
		PreprocessTime:  a.prep + bgTime,
		Windows:         ledger,
	}, nil
}

// timed runs fn and adds its wall time to *d — the stage timings of
// Result, reported as the paper's Table 3 diagnostics. The clock reading
// never reaches sanitized output.
func timed(d *time.Duration, fn func() error) error {
	start := time.Now() //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output
	err := fn()
	*d += time.Since(start) //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output
	return err
}

// OutputMeta derives the sink metadata for a streaming run from the input
// metadata: same geometry and timing, the batch path's "-verro" name suffix.
func OutputMeta(in stream.Meta) stream.Meta {
	out := in
	out.Name = in.Name + "-verro"
	return out
}

// sanitizeWindowed adapts an in-memory Sanitize call onto the streaming
// driver: the clip is wrapped as a slice-backed source, the rendered
// windows are collected back, and the Result is completed with the
// assembled synthetic video so callers see the exact batch contract.
func sanitizeWindowed(v *vid.Video, tracks *motio.TrackSet, cfg Config) (*Result, error) {
	src := stream.NewSliceSource(vid.MetaOf(v), v.Frames)
	var sink *stream.CollectSink
	if !cfg.Phase2.SkipRender {
		sink = &stream.CollectSink{}
	}
	var s stream.Sink
	if sink != nil {
		s = sink
	}
	res, err := SanitizeStream(src, tracks, cfg, s)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		out := vid.New(v.Name+"-verro", v.W, v.H, v.FPS)
		out.Moving = v.Moving
		out.Frames = sink.Frames
		res.Synthetic = out
		res.Phase2.Video = out
	}
	return res, nil
}
