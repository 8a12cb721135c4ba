// Command perfbench is VERRO's whole-run benchmark. It builds the verro and
// verrod binaries from the checkout, generates the workload's inputs from
// its seed, and drives the program from outside: the CLI workloads run the
// verro binary as a subprocess, the service workload runs verrod and drives
// it over HTTP with two closed-loop clients. Every output is checked
// against a reference digest computed in-process during set-up.
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it makes
// the same public calls in-process under an obs.Trace, alternating traced
// and untraced runs, and reports the per-layer metrics instead. The metric
// names, units and workloads are listed in README.md and BENCHMARK.json.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload static-tracks --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//	bash perfbench/run.sh compare OLD.json NEW.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Each run also writes a record
// stamped with the host fingerprint under .bench_build/records.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	// root is the repository checkout the binaries are built from.
	root string
	// work holds generated inputs, outputs and records; it defaults to
	// .bench_build under root.
	work string
	// scale shrinks the presets: benchScale from the command line, a tiny
	// scale in the self-test.
	scale float64
}

// benchScale is the preset scale of every workload's input.
const benchScale = 0.5

// setupRounds is how many times a run sets up; setup_s is their median.
const setupRounds = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := compare(args[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	o := options{scale: benchScale}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "static-tracks, moving-detect-eps, verrod-jobs, or all (every workload in both modes; --trace is ignored)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs and of the sanitizer")
	fs.IntVar(&o.seconds, "seconds", 30, "measurement time in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced in-process run")
	fs.StringVar(&o.root, "root", ".", "repository root to build and run")
	fs.StringVar(&o.work, "work", "", "scratch directory (default <root>/.bench_build)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadByName(o.workload); !(ok || o.workload == "all") || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			o.workload, o.seconds, o.trace)
		return 2
	}
	return execute(o, stdout, stderr)
}

// execute runs the benchmark with checked options, prints the reports and
// the result line, and returns the exit code.
func execute(o options, stdout, stderr io.Writer) int {
	if o.work == "" {
		o.work = filepath.Join(o.root, ".bench_build")
	}
	var res result
	if o.workload == "all" {
		// Every workload in both modes, one after the other; the final line
		// sums the counts and prefixes each metric with its workload.
		res = result{Correct: true, Metrics: map[string]metric{}}
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				o.workload, o.trace = w.name, trace
				r, err := benchAndReport(o, w, stdout, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "perfbench:", err)
					return 1
				}
				res.Correct = res.Correct && r.Correct
				res.Attempted += r.Attempted
				res.Failed += r.Failed
				for name, m := range r.Metrics {
					res.Metrics[w.name+"/"+name] = m
				}
			}
		}
	} else {
		w, _ := workloadByName(o.workload)
		var err error
		if res, err = benchAndReport(o, w, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// benchAndReport runs one workload in one mode, saves its record and
// prints its report.
func benchAndReport(o options, w workload, stdout, log io.Writer) (result, error) {
	rec, err := bench(o, w, log)
	if err != nil {
		return result{}, err
	}
	path, err := rec.save(filepath.Join(o.work, "records"))
	if err != nil {
		return result{}, err
	}
	rec.print(stdout, path)
	return rec.Result, nil
}

// bench sets the workload up, measures it, and assembles the record.
func bench(o options, w workload, log io.Writer) (*record, error) {
	abs, err := filepath.Abs(o.root)
	if err != nil {
		return nil, err
	}
	o.root = abs
	if _, err := os.Stat(filepath.Join(o.root, "go.mod")); err != nil {
		return nil, fmt.Errorf("no go.mod at %s: run from the repository root", o.root)
	}
	if err := os.MkdirAll(filepath.Join(o.work, "work"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(o.work, "work"), w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rounds := setupRounds
	if o.trace == 1 {
		// setup_s is an end-to-end metric; the traced run does not report it.
		rounds = 1
	}
	env, setupTimes, err := setup(o, w, dir, rounds)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.close()

	deadline := time.Duration(o.seconds) * time.Second
	steal := stolenSeconds()
	var m *measurement
	switch {
	case o.trace == 1:
		m, err = measureLayers(env, deadline, log)
	case w.server:
		m, err = measureServer(env, deadline, log)
	default:
		m, err = measureCLI(env, deadline, log)
	}
	if err != nil {
		return nil, err
	}
	steal = stolenSeconds() - steal
	if o.trace == 0 {
		m.set("setup_s", median(setupTimes))
	}
	m.samples["setup_rounds"] = len(setupTimes)
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("stop verrod: %w", err)
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	res, err := m.result(defs)
	if err != nil {
		return nil, err
	}
	return newRecord(o, res, m.samples, steal), nil
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, as BENCHMARK.json lists
// them. fail_frac is not among them: it is zero on a healthy tree, and the
// result line carries it as failed/attempted.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_p50_s", "s"},
	{"frames_per_s", "frames/s"},
	{"cpu_s_per_run", "s"},
	{"peak_rss_mb", "MB"},
	{"first_window_s", "s"},
}

// perLayer are the metrics of a traced run, named after the modules they
// measure.
var perLayer = []metricDef{
	{"vid.decode_s", "s"},
	{"vid.frames_decoded", "count"},
	{"vid.encode_s", "s"},
	{"vid.bytes_out", "bytes"},
	{"stream.windows", "count"},
	{"detect.background_s", "s"},
	{"detect.track_s", "s"},
	{"detect.detections", "count"},
	{"track.tracks_confirmed", "count"},
	{"core.analysis_s", "s"},
	{"keyframe.hist_s", "s"},
	{"keyframe.segment_s", "s"},
	{"keyframe.key_frames", "count"},
	{"inpaint.background_s", "s"},
	{"core.dry_run_s", "s"},
	{"core.phase1_s", "s"},
	{"core.keyframes_picked", "count"},
	{"core.phase2_s", "s"},
	{"core.render_s", "s"},
	{"core.frames_rendered", "count"},
	{"core.objects_rendered", "count"},
	{"par.utilization", "ratio"},
	{"par.busy_s", "s"},
	{"server.admit_s", "s"},
	{"server.rejected", "count"},
	{"server.checkpoint_gap_s", "s"},
	{"server.finalize_s", "s"},
	{"store.checkpoints", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_s", "s"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measurement accumulates one run's figures before they become a result.
type measurement struct {
	values    map[string]float64
	attempted int
	failed    int
	// wrong counts outputs that ran to completion but did not match the
	// reference (digest or privacy ledger); any makes the run incorrect.
	wrong   int
	samples map[string]int
}

func newMeasurement() *measurement {
	return &measurement{values: map[string]float64{}, samples: map[string]int{}}
}

func (m *measurement) set(name string, v float64) { m.values[name] = v }

// result checks that every metric of defs was measured and nothing else.
func (m *measurement) result(defs []metricDef) (result, error) {
	res := result{
		Correct:   m.wrong == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := m.values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(res.Metrics) != len(m.values) {
		var extra []string
		for name := range m.values {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return res, fmt.Errorf("unlisted metrics %v", extra)
	}
	if m.attempted == 0 {
		return res, errors.New("no run was attempted")
	}
	return res, nil
}
