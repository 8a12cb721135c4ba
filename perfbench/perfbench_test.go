package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"verro/internal/core"
	"verro/internal/scene"
	"verro/internal/store"
)

// The self-test runs at a tiny scale: the presets shrunk to a tenth, so a
// whole workload takes seconds. It checks the benchmark's own machinery,
// not the program's speed.
const tinyScale = 0.1

// benchmarkJSON is the part of BENCHMARK.json the self-test reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric and workload tables
// of the program and of BENCHMARK.json the same, names and units.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, ours)
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestEveryWorkloadEmitsEveryMetric runs the one command that covers every
// workload in both modes and checks its summary line: every listed metric
// of every workload with its unit, nothing else, no failure, and the exact
// decode counts and dry-run placement.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	res, stderr := runBench(t, t.TempDir(), "all", 0)
	if !res.Correct || res.Failed != 0 || res.Attempted < 2*len(workloads) {
		t.Errorf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stderr)
	}
	if want := len(workloads) * (len(endToEnd) + len(perLayer)); len(res.Metrics) != want {
		t.Errorf("%d metrics, want %d", len(res.Metrics), want)
	}
	for _, w := range workloads {
		get := func(name string) float64 { return res.Metrics[w.name+"/"+name].Value }
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if m, ok := res.Metrics[w.name+"/"+d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s/%s: got %+v, want unit %s", w.name, d.name, m, d.unit)
			}
		}
		for _, d := range endToEnd {
			if v := get(d.name); v <= 0 {
				t.Errorf("%s/%s = %v, want > 0", w.name, d.name, v)
			}
		}
		p, err := scene.PresetByName(w.preset)
		if err != nil {
			t.Fatal(err)
		}
		passes := 1
		if !w.tracks {
			passes += 2 // median background, then detection
		}
		if w.eps > 0 {
			passes++ // the dry run
		}
		if got, want := get("vid.frames_decoded"), float64(passes*p.Scaled(tinyScale).Frames); got != want {
			t.Errorf("%s: vid.frames_decoded = %v, want %v", w.name, got, want)
		}
		if dry := get("core.dry_run_s"); (dry > 0) != (w.eps > 0) {
			t.Errorf("%s: core.dry_run_s = %v with eps %v", w.name, dry, w.eps)
		}
		if cov := get("trace.coverage"); cov <= 0 || cov > 1 {
			t.Errorf("%s: trace.coverage = %v, want in (0, 1]", w.name, cov)
		}
	}
}

// TestOneWorkloadResultLine checks the form every single-workload run
// prints last: exactly the end-to-end metrics, unprefixed.
func TestOneWorkloadResultLine(t *testing.T) {
	res, stderr := runBench(t, t.TempDir(), "static-tracks", 0)
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("%+v\n%s", res, stderr)
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("metric %s: got %+v, want a positive value in %s", d.name, m, d.unit)
		}
	}
}

// runBench runs the benchmark command in-process for 3 s per workload and
// mode and parses its last line.
func runBench(t *testing.T, work, workload string, trace int) (result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := execute(options{
		workload: workload, seed: 3, seconds: 3, trace: trace,
		root: "..", work: work, scale: tinyScale,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res, errb.String()
}

// pinnedDigests are the reference digests of the tiny-scale inputs of seed
// 5. The reference comes from the library of the revision under test, so
// the output checks alone pass a change that alters the sanitized bytes on
// every path at once; this pin catches it. A change that alters the output
// on purpose updates these values and says why.
var pinnedDigests = map[string]string{
	"static-tracks":     "d6c5ee9495921d8bed7eda021e5606a41afa3894fb4f87adae37087534e09acf",
	"moving-detect-eps": "535f6641125d85b3dff7081358ba081ee1c4bf4b9588e7cc631f86a8ec681fbb",
}

// TestPinnedReferenceDigest fails when the program's output for a fixed
// input changes.
func TestPinnedReferenceDigest(t *testing.T) {
	for name, want := range pinnedDigests {
		w, _ := workloadByName(name)
		in, err := prepare(w, 5, tinyScale, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if in.digest != want {
			t.Errorf("%s seed 5: reference digest %s, pinned %s", name, in.digest, want)
		}
	}
}

// TestInputsFollowTheSeed: the same seed regenerates byte-identical inputs
// and the same reference digest; another seed gives other inputs.
func TestInputsFollowTheSeed(t *testing.T) {
	for _, name := range []string{"static-tracks", "moving-detect-eps"} {
		w, _ := workloadByName(name)
		dir := t.TempDir()
		a, err := prepare(w, 5, tinyScale, filepath.Join(dir, "a"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := prepare(w, 5, tinyScale, filepath.Join(dir, "b"))
		if err != nil {
			t.Fatal(err)
		}
		c, err := prepare(w, 6, tinyScale, filepath.Join(dir, "c"))
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: seed 5 gave digests %s and %s", name, a.digest, b.digest)
		}
		if !sameFile(t, a.video, b.video) || (w.tracks && !sameFile(t, a.tracks, b.tracks)) {
			t.Errorf("%s: seed 5 gave different inputs", name)
		}
		if sameFile(t, a.video, c.video) || a.digest == c.digest {
			t.Errorf("%s: seeds 5 and 6 gave the same input or digest", name)
		}
	}
}

func sameFile(t *testing.T, x, y string) bool {
	t.Helper()
	bx, err := os.ReadFile(x)
	if err != nil {
		t.Fatal(err)
	}
	by, err := os.ReadFile(y)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(bx, by)
}

// TestFlippedByteIsAFailure checks the output check itself: a real verro
// output passes, the same file with one byte flipped does not, and a
// measurement whose outputs do not match the reference counts every run
// as failed and reports the result as incorrect.
func TestFlippedByteIsAFailure(t *testing.T) {
	w, _ := workloadByName("static-tracks")
	work := t.TempDir()
	e, _, err := setup(options{root: "..", work: work, seed: 7, scale: tinyScale}, w, work, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	out := filepath.Join(work, "out.vvf")
	if _, err := runCLI(e.verro, e.cliArgs(out), out); err != nil {
		t.Fatal(err)
	}
	if err := checkOutput(out, e.in.digest); err != nil {
		t.Fatalf("unmodified output: %v", err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkOutput(out, e.in.digest); !errors.Is(err, errMismatch) {
		t.Fatalf("output with a flipped byte: %v, want a mismatch", err)
	}

	e.in.digest = strings.Repeat("0", 64)
	var log bytes.Buffer
	m, err := measureCLI(e, time.Second, &log)
	if err != nil {
		t.Fatal(err)
	}
	m.set("setup_s", 1)
	res, err := m.result(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted < 1 {
		t.Errorf("mismatching outputs reported correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestLedgerCheck: a manifest whose per-window ledger does not recompose
// its totals is caught.
func TestLedgerCheck(t *testing.T) {
	m := &store.Manifest{Frames: 64, Picked: 3, Epsilon: 1.5, Ledger: []core.WindowSpend{
		{Start: 0, Frames: 32, Picked: 1, Epsilon: 0.5},
		{Start: 32, Frames: 32, Picked: 2, Epsilon: 1.0},
	}}
	if err := checkLedger(m); err != nil {
		t.Fatalf("consistent ledger: %v", err)
	}
	m.Ledger[1].Picked = 1
	if err := checkLedger(m); !errors.Is(err, errMismatch) {
		t.Fatal("ledger missing a picked key frame passed")
	}
}
