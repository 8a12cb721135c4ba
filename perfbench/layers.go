package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"verro"
	"verro/internal/obs"
	"verro/internal/stream"
	"verro/internal/vid"
)

// timedSource times the public stream.Source calls that decode frames.
type timedSource struct {
	stream.Source
	busy   time.Duration
	frames int
}

func (s *timedSource) Next(budget int) ([]*verro.Image, int, error) {
	start := time.Now()
	frames, at, err := s.Source.Next(budget)
	s.busy += time.Since(start)
	s.frames += len(frames)
	return frames, at, err
}

// timedSink times the public stream.Sink calls that encode frames. The
// pipeline appends inside its phase2 span and closes after it.
type timedSink struct {
	*vid.FileSink
	append, close time.Duration
}

func (s *timedSink) Append(frames []*verro.Image) error {
	start := time.Now()
	err := s.FileSink.Append(frames)
	s.append += time.Since(start)
	return err
}

func (s *timedSink) Close() error {
	start := time.Now()
	err := s.FileSink.Close()
	s.close += time.Since(start)
	return err
}

// layerRun is one in-process pipeline run: its wall time and, when traced,
// its per-layer values.
type layerRun struct {
	wall   float64
	values map[string]float64
}

// exactCounts are the per-layer counts that must repeat exactly from run
// to run; a difference is reported as an incorrect result.
var exactCounts = []string{
	"vid.frames_decoded", "vid.bytes_out", "stream.windows",
	"detect.detections", "track.tracks_confirmed", "keyframe.key_frames",
	"core.keyframes_picked", "core.frames_rendered", "core.objects_rendered",
}

// measureLayers alternates untraced and traced in-process runs of the
// workload's pipeline for d (half of d for the server workload, which
// spends the other half observing verrod jobs over HTTP) and sets every
// per-layer metric: medians over the traced runs, counts that must agree
// across them, and the tracing overhead as traced minus untraced median
// wall time. The server workload runs as many pipelines at once as it has
// clients, as verrod does.
func measureLayers(e *env, d time.Duration, log io.Writer) (*measurement, error) {
	m := newMeasurement()
	budget := d
	parallel := 1
	if e.w.server {
		budget = d / 2
		parallel = clients
	}
	var plain, traced []layerRun
	start := time.Now()
	// Each iteration is one untraced and one traced round; the next starts
	// only when it is expected to end within the budget.
	var last time.Duration
	for i := 0; i == 0 || time.Since(start)+last < budget; i++ {
		began := time.Now()
		for _, trace := range []bool{false, true} {
			runs := e.layerRuns(trace, parallel, i, m, log)
			if trace {
				traced = append(traced, runs...)
			} else {
				plain = append(plain, runs...)
			}
		}
		last = time.Since(began)
	}
	if len(traced) == 0 || len(plain) == 0 {
		return nil, fmt.Errorf("no in-process run succeeded out of %d", m.attempted)
	}
	for _, def := range perLayer {
		if strings.HasPrefix(def.name, "server.") || strings.HasPrefix(def.name, "store.") {
			m.set(def.name, 0)
			continue
		}
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.values[def.name])
		}
		m.set(def.name, median(xs))
	}
	for _, name := range exactCounts {
		for _, r := range traced[1:] {
			if r.values[name] != traced[0].values[name] {
				m.wrong++
				fmt.Fprintf(log, "perfbench: %s was %v and %v in two traced runs\n", name, traced[0].values[name], r.values[name])
				break
			}
		}
	}
	m.set("trace.overhead_s", median(walls(traced))-median(walls(plain)))
	m.samples["traced_runs"] = len(traced)
	m.samples["untraced_runs"] = len(plain)
	if e.w.server {
		if err := observeServer(e, d-budget, m, log); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func walls(runs []layerRun) []float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.wall)
	}
	return xs
}

// observeServer runs the job loop against verrod and sets the server and
// store metrics from the client-observed event timeline.
func observeServer(e *env, d time.Duration, m *measurement, log io.Writer) error {
	res := e.jobLoop(d, m, log)
	if len(res.jobs) == 0 {
		return fmt.Errorf("no verrod job completed out of %d", m.attempted)
	}
	var admit, gap, finalize, checkpoints []float64
	for _, j := range res.jobs {
		admit = append(admit, j.admit.Seconds())
		gap = append(gap, j.gap.Seconds())
		finalize = append(finalize, j.finalize.Seconds())
		checkpoints = append(checkpoints, float64(j.checkpoints))
	}
	m.set("server.admit_s", median(admit))
	m.set("server.rejected", float64(res.refused))
	m.set("server.checkpoint_gap_s", median(gap))
	m.set("server.finalize_s", median(finalize))
	m.set("store.checkpoints", median(checkpoints))
	m.samples["jobs"] = len(res.jobs)
	return nil
}

// layerRuns runs n pipelines at once, checks each output, and returns the
// runs that succeeded; failures are counted in m.
func (e *env) layerRuns(trace bool, n, iter int, m *measurement, log io.Writer) []layerRun {
	runs := make([]layerRun, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			out := filepath.Join(e.dir, fmt.Sprintf("layer-%d-%d.vvf", iter, j))
			runs[j], errs[j] = e.layerRun(trace, out)
			if errs[j] == nil {
				errs[j] = checkOutput(out, e.in.digest)
			}
			os.Remove(out)
		}(j)
	}
	wg.Wait()
	var ok []layerRun
	for j, err := range errs {
		m.attempted++
		if err != nil {
			m.failed++
			if errors.Is(err, errMismatch) {
				m.wrong++
			}
			fmt.Fprintf(log, "perfbench: in-process run: %v\n", err)
			continue
		}
		ok = append(ok, runs[j])
	}
	return ok
}

// layerRun decodes the input file, runs the pipeline into an output file,
// and, when traced, derives the per-layer values from the trace report and
// the timed source and sink.
func (e *env) layerRun(traced bool, out string) (layerRun, error) {
	var r layerRun
	start := time.Now()
	var trace *verro.Trace
	if traced {
		trace = verro.NewTrace("perfbench")
	}
	file, err := vid.OpenFileSource(e.in.video)
	if err != nil {
		return r, err
	}
	defer file.Close()
	fsink, err := vid.CreateFileSink(out, verro.StreamOutputMeta(file.Meta()))
	if err != nil {
		return r, err
	}
	defer fsink.Close() // idempotent; the pipeline closes it on success
	src := &timedSource{Source: file}
	sink := &timedSink{FileSink: fsink}
	dry, err := sanitize(src, e.w.params(e.in, e.seed), trace, sink)
	if err != nil {
		return r, err
	}
	r.wall = time.Since(start).Seconds()
	if traced {
		trace.Finish()
		r.values = layerValues(trace.Report(), r.wall, dry, src, sink)
	}
	return r, nil
}

// layerValues maps one traced run onto the per-layer metrics.
func layerValues(rep *verro.TraceReport, wall float64, dry time.Duration, src *timedSource, sink *timedSink) map[string]float64 {
	span := func(name string) float64 {
		if s := rep.Span.Find(name); s != nil {
			return seconds(s.DurationNS)
		}
		return 0
	}
	count := func(name string) float64 { return float64(rep.Counters[name]) }
	hist := 0.0
	if an := rep.Span.Find("analysis"); an != nil {
		for _, c := range an.Children {
			if strings.HasPrefix(c.Name, "window@") {
				hist += seconds(c.DurationNS)
			}
		}
	}
	v := map[string]float64{
		"vid.decode_s":           src.busy.Seconds(),
		"vid.frames_decoded":     float64(src.frames),
		"vid.encode_s":           (sink.append + sink.close).Seconds(),
		"vid.bytes_out":          float64(sink.Written()),
		"stream.windows":         count(obs.CWindows),
		"detect.background_s":    span("background"),
		"detect.track_s":         span("detect"),
		"detect.detections":      count(obs.CDetections),
		"track.tracks_confirmed": count(obs.CTracksConfirmed),
		"core.analysis_s":        span("analysis"),
		"keyframe.hist_s":        hist,
		"keyframe.segment_s":     span("keyframes"),
		"keyframe.key_frames":    count(obs.CKeyFrames),
		"inpaint.background_s":   span("inpaint"),
		"core.dry_run_s":         dry.Seconds(),
		"core.phase1_s":          span("phase1"),
		"core.keyframes_picked":  count(obs.CKeyFramesPicked),
		"core.phase2_s":          span("phase2"),
		"core.render_s":          span("phase2") - sink.append.Seconds(),
		"core.frames_rendered":   count(obs.CFramesRendered),
		"core.objects_rendered":  count(obs.CObjectsRendered),
		"trace.coverage":         coverage(rep.Span, wall),
	}
	if rep.Pool != nil {
		v["par.utilization"] = rep.Pool.Utilization
		v["par.busy_s"] = seconds(rep.Pool.BusyTotalNS)
	}
	return v
}

// coverage is the share of wall time that the root's direct child spans
// cover, overlaps counted once. Time no span covers, such as the untraced
// dry run and the sink's final flush, lowers it.
func coverage(root *obs.SpanReport, wall float64) float64 {
	type interval struct{ lo, hi int64 }
	var iv []interval
	for _, c := range root.Children {
		iv = append(iv, interval{c.StartNS, c.StartNS + c.DurationNS})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var covered, end int64
	for _, x := range iv {
		if x.lo > end {
			end = x.lo
		}
		if x.hi > end {
			covered += x.hi - end
			end = x.hi
		}
	}
	if wall <= 0 {
		return 0
	}
	return seconds(covered) / wall
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
