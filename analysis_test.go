package verro

// Analyze + Render is SanitizeStreamFrom cut in two so that the ε→f
// conversion and detection can reuse one analysis pass. The cut must not
// move a byte: these tests pin the split's output to digests recorded from
// the single-pass SanitizeStream it replaced (and the render-free dry run
// that used to convert ε), at every window shape, on a static and a
// moving-camera preset, from a mid-clip resume cursor, and through the
// fused analysis+detection front end.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"verro/internal/stream"
	"verro/internal/vid"
)

// splitDigests are the SHA-256 digests of the .vvf stream SanitizeStream
// wrote for each preset (scaled by equivScale, ground-truth tracks, seed 7,
// default f) before it was split into Analyze and Render; "/eps" entries
// are the runs at the f the render-free dry run converted ε = 4 to.
var splitDigests = map[string]string{
	"MOT01":     "3c7f9aa3fa5d5caa30917589c5269bffa6f49e36f5caf20f9ff89bc24319acd8",
	"MOT01/eps": "b764a7c8be4f9de46cabc2a935f1c1ceab5cf7ff8f9e381fb1d0aaed20b7a432",
	"MOT06":     "36ba0b94907bff8b17212d0dfff6619105fc5a1c8f8cc8628d2750a69015c267",
	"MOT06/eps": "81d47d6bf40e7a3ff16850ca9b12611c00b8058abd1e5100c1582369ce513de3",
}

const splitEps = 4

func splitFixture(t *testing.T, name string) *Generated {
	t.Helper()
	preset, err := BenchmarkPreset(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := GenerateBenchmark(preset.Scaled(equivScale))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sliceSource(v *Video) *stream.SliceSource {
	return stream.NewSliceSource(vid.MetaOf(v), v.Frames)
}

func splitConfig(window int) Config {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.WindowFrames = window
	return cfg
}

// renderDigest renders a into an encoded .vvf stream and returns its
// SHA-256.
func renderDigest(t *testing.T, a *Analysis, tracks *TrackSet, cfg Config) string {
	t.Helper()
	h := sha256.New()
	w, err := vid.NewWriter(h, StreamOutputMeta(a.Meta))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Render(a, tracks, cfg, w, 0); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// dryRunFlip is the ε→f conversion the split replaced: a render-free
// SanitizeStream over the whole source, then FlipProbability over the
// number of key frames it picked.
func dryRunFlip(t *testing.T, v *Video, tracks *TrackSet, cfg Config, eps float64) (float64, int) {
	t.Helper()
	dry := cfg
	dry.Phase2.SkipRender = true
	res, err := SanitizeStream(sliceSource(v), tracks, dry, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FlipProbability(len(res.Phase1.Picked), eps)
	if err != nil {
		t.Fatal(err)
	}
	return f, len(res.Phase1.Picked)
}

// TestAnalyzeRenderByteIdentity: Analyze then Render writes the digest the
// unsplit SanitizeStream wrote, at window 1, 7, 64 and the whole clip, with
// and without an ε budget. The ε conversion runs twice on the same
// analysis to prove it leaves the analysis untouched, and agrees with the
// dry run it replaced.
func TestAnalyzeRenderByteIdentity(t *testing.T) {
	for _, name := range []string{"MOT01", "MOT06"} {
		g := splitFixture(t, name)
		for _, window := range []int{1, 7, 64, 0} {
			for _, eps := range []float64{0, splitEps} {
				key := name
				if eps > 0 {
					key += "/eps"
				}
				t.Run(fmt.Sprintf("%s/window=%d/eps=%v", name, window, eps), func(t *testing.T) {
					cfg := splitConfig(window)
					a, err := Analyze(sliceSource(g.Video), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if eps > 0 {
						f1, k1, err := FlipForEpsilon(a, g.Truth, cfg, eps)
						if err != nil {
							t.Fatal(err)
						}
						f2, k2, err := FlipForEpsilon(a, g.Truth, cfg, eps)
						if err != nil {
							t.Fatal(err)
						}
						if f1 != f2 || k1 != k2 {
							t.Fatalf("FlipForEpsilon not repeatable: f %v/%v, K %d/%d", f1, f2, k1, k2)
						}
						if window == 64 {
							if f, k := dryRunFlip(t, g.Video, g.Truth, cfg, eps); f != f1 || k != k1 {
								t.Fatalf("FlipForEpsilon = (%v, %d), dry run gave (%v, %d)", f1, k1, f, k)
							}
						}
						cfg.Phase1.F = f1
					}
					if got := renderDigest(t, a, g.Truth, cfg); got != splitDigests[key] {
						t.Fatalf("digest %s, want %s", got, splitDigests[key])
					}
				})
			}
		}
	}
}

// TestRenderResumeSuffix: Render from a mid-clip cursor appends exactly the
// suffix of the uninterrupted run's frames and recomputes the same ledger.
func TestRenderResumeSuffix(t *testing.T) {
	for _, name := range []string{"MOT01", "MOT06"} {
		g := splitFixture(t, name)
		for _, window := range []int{7, 64} {
			cfg := splitConfig(window)
			full := &stream.CollectSink{}
			fullRes, err := SanitizeStream(sliceSource(g.Video), g.Truth, cfg, full)
			if err != nil {
				t.Fatal(err)
			}
			cursor := g.Video.Len() / 2 / window * window
			if cursor == 0 {
				cursor = window
			}
			a, err := Analyze(sliceSource(g.Video), cfg)
			if err != nil {
				t.Fatal(err)
			}
			part := &stream.CollectSink{}
			res, err := Render(a, g.Truth, cfg, part, cursor)
			if err != nil {
				t.Fatal(err)
			}
			if len(part.Frames) != g.Video.Len()-cursor {
				t.Fatalf("%s window %d: resumed at %d rendered %d frames, want %d",
					name, window, cursor, len(part.Frames), g.Video.Len()-cursor)
			}
			for i, f := range part.Frames {
				if !f.Equal(full.Frames[cursor+i]) {
					t.Fatalf("%s window %d: resumed frame %d differs", name, window, cursor+i)
				}
			}
			if !reflect.DeepEqual(res.Windows, fullRes.Windows) || res.Epsilon != fullRes.Epsilon {
				t.Fatalf("%s window %d: resumed ledger differs", name, window)
			}
		}
	}
}

// TestAnalyzeAndTrackStream: the fused front end recovers the tracks
// DetectAndTrackStream does, whether the detector shares the analysis'
// background samples (equal strides) or samples on its own stage (unequal
// strides, or a render-free analysis with no samples), and its Analysis
// renders the bytes a separate Analyze would.
func TestAnalyzeAndTrackStream(t *testing.T) {
	cases := []struct {
		name            string
		detStep, bgStep int
		renderFree      bool
	}{
		{name: "shared"},
		{name: "detector-step", detStep: 3},
		{name: "sanitizer-step", bgStep: 5},
		{name: "render-free", renderFree: true},
	}
	for _, name := range []string{"MOT01", "MOT06"} {
		g := splitFixture(t, name)
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				pcfg := DefaultPipelineConfig()
				pcfg.WindowFrames = 16
				pcfg.BackgroundStep = c.detStep
				cfg := splitConfig(16)
				cfg.BackgroundStep = c.bgStep
				cfg.Phase2.SkipRender = c.renderFree

				want, err := DetectAndTrackStream(sliceSource(g.Video), pcfg)
				if err != nil {
					t.Fatal(err)
				}
				a, tracks, err := AnalyzeAndTrackStream(sliceSource(g.Video), pcfg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tracks, want) {
					t.Fatal("fused tracks differ from DetectAndTrackStream")
				}
				if c.renderFree {
					return
				}
				alone, err := Analyze(sliceSource(g.Video), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := renderDigest(t, a, tracks, cfg), renderDigest(t, alone, tracks, cfg); got != want {
					t.Fatalf("fused analysis renders %s, Analyze renders %s", got, want)
				}
			})
		}
	}
}

// TestRenderRejectsMismatchedAnalysis: an analysis renders only under the
// config it was taken with, only when it was taken for rendering, and only
// once (Render consumes its background samples).
func TestRenderRejectsMismatchedAnalysis(t *testing.T) {
	g := splitFixture(t, "MOT01")
	cfg := splitConfig(16)
	sink := func() StreamSink { return &stream.CollectSink{} }

	free := cfg
	free.Phase2.SkipRender = true
	a, err := Analyze(sliceSource(g.Video), free)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Render(a, g.Truth, cfg, sink(), 0); err == nil || !strings.Contains(err.Error(), "render-free") {
		t.Fatalf("render from a render-free analysis: err = %v", err)
	}
	if _, err := Render(a, g.Truth, free, nil, 0); err != nil {
		t.Fatalf("render-free run on a render-free analysis: %v", err)
	}

	a, err = Analyze(sliceSource(g.Video), cfg)
	if err != nil {
		t.Fatal(err)
	}
	kf := cfg
	kf.Keyframe.Tau = 0.5
	if _, err := Render(a, g.Truth, kf, sink(), 0); err == nil || !strings.Contains(err.Error(), "key-frame") {
		t.Fatalf("render under another key-frame config: err = %v", err)
	}
	if _, _, err := FlipForEpsilon(a, g.Truth, kf, splitEps); err == nil {
		t.Fatal("FlipForEpsilon under another key-frame config succeeded")
	}
	step := cfg
	step.BackgroundStep = 5
	if _, err := Render(a, g.Truth, step, sink(), 0); err == nil || !strings.Contains(err.Error(), "background") {
		t.Fatalf("render under another background step: err = %v", err)
	}
	if _, err := Render(a, g.Truth, cfg, sink(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Render(a, g.Truth, cfg, sink(), 0); err == nil || !strings.Contains(err.Error(), "already rendered") {
		t.Fatalf("second render of one analysis: err = %v", err)
	}
}

// TestPreprocessTimeCoversAnalysis: through the SanitizeStream wrapper,
// Result.PreprocessTime still includes the analysis pass (the Table 3
// preprocessing column), so it is at least the traced analysis span.
func TestPreprocessTimeCoversAnalysis(t *testing.T) {
	g := splitFixture(t, "MOT06")
	cfg := splitConfig(16)
	cfg.Trace = NewTrace("preprocess")
	res, err := SanitizeStream(sliceSource(g.Video), g.Truth, cfg, &stream.CollectSink{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace.Finish()
	rep := cfg.Trace.Report()
	an := rep.Span.Find("analysis")
	if an == nil || an.DurationNS <= 0 {
		t.Fatalf("no timed analysis span in %+v", rep.Span)
	}
	if got := res.PreprocessTime.Nanoseconds(); got < an.DurationNS {
		t.Fatalf("PreprocessTime %dns < analysis span %dns", got, an.DurationNS)
	}
}
