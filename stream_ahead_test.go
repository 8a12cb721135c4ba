package verro

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"verro/internal/img"
	"verro/internal/stream"
	"verro/internal/vid"
)

// exclusiveSource fails the test when two of its methods run at once or
// when Next runs after the test sealed it. Every Next sleeps a little, so
// a decode still under way when the analysis pass hands the source back
// would overlap the rewind.
type exclusiveSource struct {
	stream.Source
	t      *testing.T
	busy   atomic.Bool
	sealed atomic.Bool
	frames atomic.Int64
}

func (s *exclusiveSource) enter(op string) func() {
	if !s.busy.CompareAndSwap(false, true) {
		s.t.Errorf("%s overlaps another source call", op)
		return func() {}
	}
	return func() { s.busy.Store(false) }
}

func (s *exclusiveSource) Next(budget int) ([]*img.Image, int, error) {
	defer s.enter("Next")()
	if s.sealed.Load() {
		s.t.Errorf("Next after the run returned")
	}
	time.Sleep(time.Millisecond)
	frames, start, err := s.Source.Next(budget)
	s.frames.Add(int64(len(frames)))
	return frames, start, err
}

func (s *exclusiveSource) Reset() error {
	defer s.enter("Reset")()
	return s.Source.Reset()
}

func (s *exclusiveSource) Close() error {
	defer s.enter("Close")()
	return s.Source.Close()
}

// TestStreamAnalyzeAndTrackRewind runs the fused analysis-and-detection
// entry point, whose analysis pass decodes ahead on its own goroutine and
// whose detection pass rewinds the same source, against a source that
// rejects overlapping calls. The tracks must match DetectAndTrackStream's,
// the clip must be decoded exactly twice, and nothing may touch the source
// once the call has returned.
func TestStreamAnalyzeAndTrackRewind(t *testing.T) {
	v := shortClip(t, 40)
	pcfg := DefaultPipelineConfig()
	pcfg.WindowFrames = 7
	cfg := DefaultConfig()
	cfg.WindowFrames = 7

	src := &exclusiveSource{Source: stream.NewSliceSource(vid.MetaOf(v), v.Frames), t: t}
	_, tracks, err := AnalyzeAndTrackStream(src, pcfg, cfg)
	src.sealed.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // a stray Next would land here
	if got, want := src.frames.Load(), int64(2*v.Len()); got != want {
		t.Fatalf("decoded %d frames, want %d (two passes)", got, want)
	}
	want, err := DetectAndTrackStream(stream.NewSliceSource(vid.MetaOf(v), v.Frames), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tracks, want) {
		t.Fatal("fused pass recovered different tracks from DetectAndTrackStream")
	}
}
