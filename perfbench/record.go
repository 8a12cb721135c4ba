package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// fingerprint identifies the host a record was measured on. Records whose
// fingerprints differ do not compare: the same code runs at another speed.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
}

// record is one benchmark run as written under .bench_build/records.
type record struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Trace    int         `json:"trace"`
	Seconds  int         `json:"seconds"`
	Started  string      `json:"started"`
	Host     fingerprint `json:"host"`
	// Revision is the git commit of the checkout, or "unknown" outside a
	// git work tree; Source digests the Go sources and go.mod files built,
	// so two records of one tree agree on it either way.
	Revision string `json:"revision"`
	Source   string `json:"source"`
	// Samples counts what the medians were taken over (runs, jobs,
	// set-up rounds, traced and untraced runs).
	Samples map[string]int `json:"samples"`
	// Stolen is the CPU time the hypervisor gave to other guests during
	// the measurement, summed over the host's CPUs. A run with much of it
	// was slowed by its neighbours, not by the code.
	Stolen float64 `json:"stolen_s"`
	Result result  `json:"result"`
}

func newRecord(o options, res result, samples map[string]int, stolen float64) *record {
	return &record{
		Workload: o.workload,
		Seed:     o.seed,
		Trace:    o.trace,
		Seconds:  o.seconds,
		Started:  time.Now().UTC().Format(time.RFC3339),
		Host:     hostFingerprint(),
		Revision: gitRevision(o.root),
		Source:   sourceDigest(o.root),
		Samples:  samples,
		Stolen:   stolen,
		Result:   res,
	}
}

func hostFingerprint() fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// stolenSeconds reads the host's total steal time from /proc/stat, or 0
// where the kernel does not report it.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision reads the checkout's commit from .git, or returns "unknown"
// when root is not the top of a git work tree.
func gitRevision(root string) string {
	git := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if b, err := os.ReadFile(filepath.Join(git, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(git, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go and go.mod file under root, by path and
// content, skipping hidden directories such as .git and .bench_build.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// save writes the record as JSON into a new file in dir and returns its
// path. The name carries the workload, seed, mode, start time and source
// digest, plus a unique suffix, so a run never overwrites the record of
// another, such as the parent revision's at the same seed.
func (r *record) save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	stamp := strings.NewReplacer("-", "", ":", "").Replace(r.Started)
	f, err := os.CreateTemp(dir, fmt.Sprintf("%s-seed%d-trace%d-%s-%.12s-*.json", r.Workload, r.Seed, r.Trace, stamp, r.Source))
	if err != nil {
		return "", err
	}
	_, err = f.Write(append(b, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return f.Name(), err
}

// print writes the human-readable report: every metric with its unit,
// the failure share, and the stamp.
func (r *record) print(w io.Writer, path string) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%d seconds=%d\n", r.Workload, r.Seed, r.Trace, r.Seconds)
	fmt.Fprintf(w, "host: %s, %d CPUs, GOMAXPROCS %d, %s %s\n", r.Host.CPUModel, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Platform)
	fmt.Fprintf(w, "revision %s, source %.16s\n", r.Revision, r.Source)
	fmt.Fprintf(w, "samples: %s\n", formatSamples(r.Samples))
	fmt.Fprintf(w, "CPU time stolen by other guests during the measurement: %.1f s\n", r.Stolen)
	for _, name := range sortedNames(r.Result.Metrics) {
		m := r.Result.Metrics[name]
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-26s %14.6g (%d of %d failed)\n", "fail_frac",
		float64(r.Result.Failed)/float64(r.Result.Attempted), r.Result.Failed, r.Result.Attempted)
	fmt.Fprintf(w, "record: %s\n", path)
}

func formatSamples(s map[string]int) string {
	var parts []string
	for k, v := range s {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// compare prints two records side by side, each metric as old, new and
// new/old, after saying whether the records can be compared at all.
func compare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare OLD.json NEW.json")
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := recs[0], recs[1]
	if a.Host != b.Host {
		fmt.Fprintf(w, "WARNING: host fingerprints differ; the figures are not comparable\n  old: %+v\n  new: %+v\n", a.Host, b.Host)
	} else {
		fmt.Fprintf(w, "same host: %+v\n", a.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "WARNING: different runs: %s trace=%d seconds=%d vs %s trace=%d seconds=%d\n",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	fmt.Fprintf(w, "revision %.12s -> %.12s, seed %d -> %d\n", a.Revision, b.Revision, a.Seed, b.Seed)
	fmt.Fprintf(w, "samples: %s -> %s\n", formatSamples(a.Samples), formatSamples(b.Samples))
	fmt.Fprintf(w, "CPU time stolen by other guests: %.1f s -> %.1f s\n", a.Stolen, b.Stolen)
	names := sortedNames(a.Result.Metrics)
	for _, n := range sortedNames(b.Result.Metrics) {
		if _, ok := a.Result.Metrics[n]; !ok {
			names = append(names, n)
		}
	}
	for _, n := range names {
		x, okA := a.Result.Metrics[n]
		y, okB := b.Result.Metrics[n]
		switch {
		case !okA || !okB:
			fmt.Fprintf(w, "  %-26s only in one record\n", n)
		case x.Value == 0:
			fmt.Fprintf(w, "  %-26s %12.6g %12.6g %s\n", n, x.Value, y.Value, x.Unit)
		default:
			fmt.Fprintf(w, "  %-26s %12.6g %12.6g %s  x%.3f\n", n, x.Value, y.Value, x.Unit, y.Value/x.Value)
		}
	}
	fmt.Fprintf(w, "  %-26s %d/%d %d/%d\n", "failed/attempted", a.Result.Failed, a.Result.Attempted, b.Result.Failed, b.Result.Attempted)
	return nil
}
