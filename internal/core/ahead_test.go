package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"verro/internal/img"
	"verro/internal/obs"
	"verro/internal/stream"
	"verro/internal/vid"
)

// strictSource wraps a source and fails the test when two of its methods
// run at once, or when Next runs after the test sealed it. failAt, when
// positive, makes the failAt-th Next call fail; delay slows every Next so
// an overlap, if there is one, is wide enough to see.
type strictSource struct {
	stream.Source
	t      *testing.T
	failAt int
	delay  time.Duration

	busy   atomic.Bool
	sealed atomic.Bool
	nexts  atomic.Int32
}

var errInjected = errors.New("injected source failure")

func (s *strictSource) enter(op string) func() {
	if !s.busy.CompareAndSwap(false, true) {
		s.t.Errorf("%s overlaps another source call", op)
		return func() {}
	}
	return func() { s.busy.Store(false) }
}

func (s *strictSource) Next(budget int) ([]*img.Image, int, error) {
	defer s.enter("Next")()
	if s.sealed.Load() {
		s.t.Errorf("Next after the pass returned")
	}
	time.Sleep(s.delay)
	if n := int(s.nexts.Add(1)); n == s.failAt {
		return nil, 0, errInjected
	}
	return s.Source.Next(budget)
}

func (s *strictSource) Reset() error {
	defer s.enter("Reset")()
	return s.Source.Reset()
}

func (s *strictSource) Close() error {
	defer s.enter("Close")()
	return s.Source.Close()
}

// failStage fails on the window starting at frame at.
type failStage struct{ at int }

var errStage = errors.New("injected stage failure")

func (s failStage) Name() string { return "fail" }
func (s failStage) Overlap() int { return 0 }
func (s failStage) Flush() error { return nil }
func (s failStage) Process(w stream.Window) error {
	if w.Start == s.at {
		return errStage
	}
	return nil
}

// settleGoroutines waits briefly for the goroutine count to fall back to
// base and reports the count it saw last.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestAnalyzeDecodeAheadLifecycle ends the analysis pass every way it can
// end — EOF, a source error at window k, a stage error at window k — and
// checks that the decode goroutine is gone when Analyze returns: no source
// call overlaps the caller's Reset and Close, none comes after, and the
// goroutine count is back at its baseline.
func TestAnalyzeDecodeAheadLifecycle(t *testing.T) {
	g, cfg := resumeFixture(t) // 36 frames in windows of 9
	for _, c := range []struct {
		name    string
		failAt  int // source: fail the failAt-th Next
		stageAt int // stage: fail the window starting here (-1 never)
		want    error
	}{
		{"eof", 0, -1, nil},
		{"source-error-first", 1, -1, errInjected},
		{"source-error-mid", 3, -1, errInjected},
		{"source-error-at-eof", 5, -1, errInjected},
		{"stage-error-first", 0, 0, errStage},
		{"stage-error-mid", 0, 18, errStage},
		{"stage-error-last", 0, 27, errStage},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			src := &strictSource{
				Source: stream.NewSliceSource(vid.MetaOf(g.Video), g.Video.Frames),
				t:      t, failAt: c.failAt, delay: time.Millisecond,
			}
			_, err := Analyze(src, cfg, failStage{at: c.stageAt})
			src.sealed.Store(true)
			if !errors.Is(err, c.want) {
				t.Fatalf("Analyze error %v, want %v", err, c.want)
			}
			if err := src.Reset(); err != nil {
				t.Fatal(err)
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond) // a stray Next would land here
			if n := settleGoroutines(base); n > base {
				t.Fatalf("%d goroutines after Analyze, %d before", n, base)
			}
			if c.want == nil {
				// Four windows and the EOF call: decode-ahead pulls no more
				// than a sequential pass.
				if n := src.nexts.Load(); n != 5 {
					t.Fatalf("%d Next calls, want 5", n)
				}
			}
		})
	}
}

// TestAnalyzeDecodeWait checks decode_wait_ns: over a source that takes
// 5 ms per window, the coordinator waits at least the first window's decode.
func TestAnalyzeDecodeWait(t *testing.T) {
	g, cfg := resumeFixture(t)
	cfg.Trace = obs.NewTrace("wait")
	src := &strictSource{
		Source: stream.NewSliceSource(vid.MetaOf(g.Video), g.Video.Frames),
		t:      t, delay: 5 * time.Millisecond,
	}
	if _, err := Analyze(src, cfg); err != nil {
		t.Fatal(err)
	}
	span := cfg.Trace.Report().Span.Find("analysis")
	if span == nil {
		t.Fatal("no analysis span")
	}
	if got := span.Counters[obs.CDecodeWaitNS]; got < int64(5*time.Millisecond) {
		t.Fatalf("decode_wait_ns = %d, want at least one 5 ms window decode", got)
	}
	if got := span.Counters[obs.CFramesDecoded]; got != int64(g.Video.Len()) {
		t.Fatalf("frames_decoded = %d, want %d", got, g.Video.Len())
	}
}
