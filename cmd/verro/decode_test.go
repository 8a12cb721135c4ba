package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"verro"
	"verro/internal/obs"
)

// countingSource counts the frames pulled from a source over all passes.
type countingSource struct {
	verro.StreamSource
	frames int
}

func (s *countingSource) Next(budget int) ([]*verro.Image, int, error) {
	frames, start, err := s.StreamSource.Next(budget)
	s.frames += len(frames)
	return frames, start, err
}

// TestRunStreamDecodePasses is the decode-pass regression guard: a run with
// tracks decodes its input once and a track-less run twice (analysis with
// the detector's background sampling, then detection), whatever the ε
// setting — the ε→f conversion reuses the analysis. The frames_decoded
// counter of the trace must agree with what the source actually yielded.
func TestRunStreamDecodePasses(t *testing.T) {
	preset, err := verro.BenchmarkPreset("MOT01")
	if err != nil {
		t.Fatal(err)
	}
	g, err := verro.GenerateBenchmark(preset.Scaled(0.25))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.vvf")
	if _, err := verro.WriteVideo(in, g.Video); err != nil {
		t.Fatal(err)
	}
	tracksCSV := filepath.Join(dir, "tracks.csv")
	if err := g.Truth.SaveCSV(tracksCSV); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tracks string
		eps    float64
		passes int
	}{
		{tracksCSV, 0, 1},
		{tracksCSV, 3, 1},
		{"", 0, 2},
		{"", 3, 2},
	} {
		t.Run(fmt.Sprintf("tracks=%t/eps=%v", c.tracks != "", c.eps), func(t *testing.T) {
			file, err := verro.OpenVideoSource(in)
			if err != nil {
				t.Fatal(err)
			}
			defer file.Close()
			src := &countingSource{StreamSource: file}
			opt := options{
				in: in, tracksPath: c.tracks, out: filepath.Join(t.TempDir(), "out.vvf"),
				f: 0.1, eps: c.eps, seed: 3, window: 16,
				tracePath: filepath.Join(t.TempDir(), "trace.json"),
			}
			if err := runStream(opt, src); err != nil {
				t.Fatal(err)
			}
			if want := c.passes * g.Video.Len(); src.frames != want {
				t.Fatalf("decoded %d frames, want %d (%d passes)", src.frames, want, c.passes)
			}
			raw, err := os.ReadFile(opt.tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var rep obs.Report
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatal(err)
			}
			if got := rep.Counters[obs.CFramesDecoded]; got != int64(src.frames) {
				t.Fatalf("trace counts %d frames decoded, source yielded %d", got, src.frames)
			}
		})
	}
}
