package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"verro"
	"verro/internal/obs"
	"verro/internal/store"
)

// countingSource counts the frames pulled from a job's input over all of
// the job's passes.
type countingSource struct {
	verro.StreamSource
	mu     *sync.Mutex
	frames *int
}

func (s countingSource) Next(budget int) ([]*verro.Image, int, error) {
	frames, start, err := s.StreamSource.Next(budget)
	s.mu.Lock()
	*s.frames += len(frames)
	s.mu.Unlock()
	return frames, start, err
}

// decodedFrames sums the frames_decoded counter increments in an SSE
// history.
func decodedFrames(t *testing.T, events []sseEvent) int64 {
	t.Helper()
	var n int64
	for _, e := range events {
		if e.event != obs.EventCounter {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(e.data), &ev); err != nil {
			t.Fatalf("bad event data %q: %v", e.data, err)
		}
		if ev.Counter == obs.CFramesDecoded {
			n += ev.Delta
		}
	}
	return n
}

// TestJobDecodePasses is the decode-pass guard for verrod: a job with
// tracks decodes its input once and a track-less job twice, with or without
// an ε budget, and the frames_decoded counter its event stream carries
// agrees with what the source yielded.
func TestJobDecodePasses(t *testing.T) {
	input, tracksCSV := fixture(t, t.TempDir())
	srv, ts := newTestServer(t, t.TempDir(), 1)
	var mu sync.Mutex
	var frames int
	srv.wrapSource = func(src verro.StreamSource) verro.StreamSource {
		return countingSource{StreamSource: src, mu: &mu, frames: &frames}
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
			mu.Lock()
			frames = 0
			mu.Unlock()
			hold := make(chan struct{})
			srv.holdStart = hold
			m, code := postJob(t, ts, jobRequest{Input: input, Tracks: c.tracks, F: 0.1, Eps: c.eps, Seed: 5, Window: 9})
			if code != http.StatusAccepted {
				t.Fatalf("POST = %d", code)
			}
			resp, err := http.Get(ts.URL + "/jobs/" + m.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			close(hold)
			events := readSSE(t, resp.Body)
			srv.Wait()
			if got, _ := getManifest(t, ts, m.ID); got == nil || got.State != store.StateDone {
				t.Fatalf("job did not finish: %+v", got)
			}
			mu.Lock()
			pulled := frames
			mu.Unlock()
			if want := c.passes * m.Frames; pulled != want {
				t.Fatalf("decoded %d frames, want %d (%d passes)", pulled, want, c.passes)
			}
			if got := decodedFrames(t, events); got != int64(pulled) {
				t.Fatalf("events count %d frames decoded, source yielded %d", got, pulled)
			}
		})
	}
}

// TestTracklessEpsJob: a job without tracks and with an ε budget runs the
// fused analysis+detection front end and converts ε on the cached
// analysis. Its artifact must equal, byte for byte, what the CLI's -window
// path wrote before the split — DetectAndTrackStream, a render-free
// SanitizeStream dry run for K, then SanitizeStream at the converted f,
// all computed here — and its manifest must carry that run's f, K and ε.
func TestTracklessEpsJob(t *testing.T) {
	input, _ := fixture(t, t.TempDir())
	const (
		eps    = 3.0
		seed   = 5
		window = 9
	)

	src, err := verro.OpenVideoSource(input)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	pcfg := verro.DefaultPipelineConfig()
	pcfg.WindowFrames = window
	tracks, err := verro.DetectAndTrackStream(src, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := verro.DefaultConfig()
	cfg.Seed = seed
	cfg.WindowFrames = window
	dry := cfg
	dry.Phase2.SkipRender = true
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	dryRes, err := verro.SanitizeStream(src, tracks, dry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Phase1.F, err = verro.FlipProbability(len(dryRes.Phase1.Picked), eps); err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(t.TempDir(), "ref.vvf")
	sink, err := verro.NewVideoSink(refPath, verro.StreamOutputMeta(src.Meta()))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := verro.SanitizeStream(src, tracks, cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, t.TempDir(), 1)
	m, code := postJob(t, ts, jobRequest{Input: input, Eps: eps, Seed: seed, Window: window})
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	srv.Wait()
	got, _ := getManifest(t, ts, m.ID)
	if got == nil || got.State != store.StateDone {
		t.Fatalf("job did not finish: %+v", got)
	}
	if got.ResolvedF != cfg.Phase1.F || got.Picked != len(ref.Phase1.Picked) || got.Epsilon != ref.Epsilon {
		t.Fatalf("manifest f=%v K=%d ε=%v, reference f=%v K=%d ε=%v",
			got.ResolvedF, got.Picked, got.Epsilon, cfg.Phase1.F, len(ref.Phase1.Picked), ref.Epsilon)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + m.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET output: %d %v", resp.StatusCode, err)
	}
	if !bytes.Equal(artifact, want) {
		t.Fatalf("artifact (%d bytes) differs from the pre-split CLI output (%d bytes)", len(artifact), len(want))
	}
}
