// Command perfbench is the repository's benchmark: the small-scale paper
// suite cold and warm, and a 960-cell scenario sweep through a loopback
// worker fleet and from the warm store. Each pass of a workload runs in a
// fresh process of this binary; this process sets up, spawns the passes
// for the requested number of seconds, checks their outputs and prints one
// JSON result line.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload paper-cold|paper-warm|sweep-fleet|sweep-warm
//	          [--seed N] [--seconds S] [--trace 0|1]
//
// With --trace 0 the result carries the end-to-end metrics of untraced
// passes; with --trace 1 untraced and traced passes alternate and the
// result carries the per-layer metrics of a traced pass, including the
// tracing overhead. README.md beside this file says why each workload
// exists and which layer metric should move which end-to-end metric.
package main

import (
	"bytes"
	"cmp"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed = 1
	// setupSamples is how many set-ups a run measures at least; setup_s
	// reports their median (plus, for a warm workload, its fill pass).
	setupSamples = 15
	// budget bounds a whole run, so it exits in time even if a pass hangs.
	budget = 170 * time.Second
	// outDir, under the checkout's build directory, holds stores while a
	// run lasts and keeps each run's result and trace files.
	outDir = ".bench_build/perfbench"
)

// reference holds the committed output digests (see referenceMain).
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Paper     string `json:"paper"`
	SweepSeed int64  `json:"sweep_seed"`
	Sweep     string `json:"sweep"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "pass":
			os.Exit(passMain(os.Args[2:]))
		case "reference":
			os.Exit(referenceMain())
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// passRun is one pass process as the benchmark saw it.
type passRun struct {
	passResult
	Traced   bool    `json:"traced"`
	ElapsedS float64 `json:"elapsed_s"` // spawn to exit
	SetupS   float64 `json:"setup_s"`   // spawn to ready
}

type runner struct {
	ctx  context.Context
	self string
	work string
	seed int64
	n    int
}

// spawn runs one pass process and waits for it to exit.
func (r *runner) spawn(w workload, store string, traced, setupOnly bool) (*passRun, error) {
	r.n++
	args := []string{"pass", "-workload", w.name, "-seed", fmt.Sprint(r.seed), "-store", store,
		"-run", fmt.Sprintf("%s-seed%d-pass%d", w.name, r.seed, r.n)}
	if traced {
		args = append(args, "-trace")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(r.ctx, r.self, args...)
	// A pass must not outlive the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	spawned := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass: %w", w.name, err)
	}
	pr := &passRun{Traced: traced, ElapsedS: time.Since(spawned).Seconds()}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &pr.passResult); err != nil {
		return nil, fmt.Errorf("%s pass: bad result line: %w", w.name, err)
	}
	pr.SetupS = float64(pr.ReadyAt-spawned.UnixNano()) / 1e9
	return pr, nil
}

// freshStore returns a new, empty store directory for a cold pass.
func (r *runner) freshStore() string {
	return filepath.Join(r.work, fmt.Sprintf("store%d", r.n+1))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-cold, paper-warm, sweep-fleet or sweep-warm")
	seed := fs.Int64("seed", defaultSeed, "input seed (the sweep's simulator seed)")
	seconds := fs.Int("seconds", 15, "how long to keep starting measured passes")
	trace := fs.Int("trace", 0, "1 = alternate traced and untraced passes and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference.json:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	// Write back the dirty pages the build just left, so that the first
	// pass's fsyncs do not pay for them.
	syscall.Sync()
	host := hostFingerprint()
	r := &runner{ctx: ctx, self: self, work: work, seed: *seed}
	res, err := measure(r, w, ref, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)
	if err := writeRecord(tag, host, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)
	line, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the benchmark's result line.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is a run's summary with everything it was computed from.
type result struct {
	summary summary
	fill    *passRun
	passes  []*passRun
	setups  []float64
	errors  []string
}

// measure runs w's set-up, then passes until d has elapsed (at least one,
// and with traced one of each kind), and checks every pass's output.
func measure(r *runner, w workload, ref reference, d time.Duration, traced bool) (*result, error) {
	res := &result{}
	var warmStore string
	fillBad := false
	if w.fill != "" {
		cold, _ := workloadByName(w.fill)
		warmStore = filepath.Join(r.work, "warm")
		fill, err := r.spawn(cold, warmStore, false, false)
		if err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
		res.fill = fill
		bad := checkPass("fill", fill, ref, r.seed, cold, "")
		fillBad = len(bad) > 0
		res.errors = append(res.errors, bad...)
	}
	store := func() string {
		if warmStore != "" {
			return warmStore
		}
		return r.freshStore()
	}

	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		trace := traced && i%2 == 1
		if time.Now().After(deadline) && i >= 1 && (!traced || i >= 2) {
			break
		}
		dir := store()
		pr, err := r.spawn(w, dir, trace, false)
		if err != nil {
			return nil, err
		}
		if warmStore == "" {
			os.RemoveAll(dir)
		}
		res.passes = append(res.passes, pr)
		res.setups = append(res.setups, pr.SetupS)
	}
	for len(res.setups) < setupSamples {
		dir := store()
		pr, err := r.spawn(w, dir, false, true)
		if err != nil {
			return nil, err
		}
		if warmStore == "" {
			os.RemoveAll(dir)
		}
		res.setups = append(res.setups, pr.SetupS)
	}

	fillDigest := ""
	if res.fill != nil {
		fillDigest = res.fill.Digest
	}
	s := &res.summary
	for i, p := range res.passes {
		bad := checkPass(fmt.Sprintf("pass %d", i+1), p, ref, r.seed, w, fillDigest)
		if p.Digest != res.passes[0].Digest {
			bad = append(bad, fmt.Sprintf("pass %d: digest differs from pass 1", i+1))
		}
		s.Attempted += max(p.Cells, 1)
		if len(bad) > 0 || fillBad { // a wrong fill makes every warm pass wrong
			s.Failed += max(p.Cells, 1)
		}
		res.errors = append(res.errors, bad...)
	}
	s.Correct = len(res.errors) == 0
	for _, e := range res.errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	if traced {
		s.Metrics = layerSummary(res)
	} else {
		s.Metrics = endToEndSummary(w, res)
	}
	return res, nil
}

// checkPass checks one pass's output: no errors or failed cells, the
// committed digest where one exists for these inputs, and for a warm pass
// the same output as the pass that filled its store, served wholly from it.
func checkPass(label string, p *passRun, ref reference, seed int64, w workload, fillDigest string) []string {
	var bad []string
	for _, e := range p.Errors {
		bad = append(bad, label+": "+e)
	}
	if p.Failed > 0 {
		bad = append(bad, fmt.Sprintf("%s: %d failed cells", label, p.Failed))
	}
	if p.Cells == 0 {
		bad = append(bad, label+": no cells ran")
	}
	switch {
	case w.paper && p.Digest != ref.Paper:
		bad = append(bad, label+": paper suite output differs from reference.json")
	case !w.paper && seed == ref.SweepSeed && p.Digest != ref.Sweep:
		bad = append(bad, label+": sweep output differs from reference.json")
	}
	if fillDigest != "" {
		if p.Digest != fillDigest {
			bad = append(bad, label+": warm output differs from the cold pass that filled the store")
		}
		if p.Hits != p.Cells {
			bad = append(bad, fmt.Sprintf("%s: warm pass served %d of %d cells from the store", label, p.Hits, p.Cells))
		}
	}
	return bad
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEndSummary reports the medians over the untraced passes of w.
// sim_minstr_per_s is the pass's own simulated instructions per wall_s,
// except on a workload that simulates nothing (sweep-warm), where it counts
// the instructions of the fill pass whose results the pass serves.
func endToEndSummary(w workload, res *result) map[string]value {
	var walls, rates, minstr, alloc, rss []float64
	for _, p := range res.passes {
		if p.Traced {
			continue
		}
		instr := p.Counts["sim.instructions"]
		if w.simFromFill {
			instr = res.fill.Counts["sim.instructions"]
		}
		walls = append(walls, p.WallS)
		rates = append(rates, float64(p.Cells)/p.WallS)
		minstr = append(minstr, instr/1e6/p.WallS)
		alloc = append(alloc, p.AllocMB)
		rss = append(rss, p.PeakRSSMB)
	}
	setup := median(res.setups)
	if res.fill != nil {
		setup += res.fill.ElapsedS
	}
	vals := map[string]float64{
		"setup_s":          setup,
		"wall_s":           median(walls),
		"cells_per_s":      median(rates),
		"sim_minstr_per_s": median(minstr),
		"alloc_mb":         median(alloc),
		"peak_rss_mb":      median(rss),
	}
	out := map[string]value{}
	for _, m := range endToEnd {
		out[m.name] = value{vals[m.name], m.unit}
	}
	return out
}

// layerSummary reports the per-layer metrics of the traced pass with the
// median traced wall time, and the tracing overhead: the median traced
// wall_s over the median untraced wall_s, less one.
func layerSummary(res *result) map[string]value {
	var traced []*passRun
	var tWalls, uWalls []float64
	for _, p := range res.passes {
		if p.Traced {
			traced = append(traced, p)
			tWalls = append(tWalls, p.WallS)
		} else {
			uWalls = append(uWalls, p.WallS)
		}
	}
	slices.SortFunc(traced, func(a, b *passRun) int { return cmp.Compare(a.WallS, b.WallS) })
	mid := traced[(len(traced)-1)/2]
	out := map[string]value{}
	for _, m := range perLayer {
		out[m.name] = value{mid.Layers[m.name], m.unit}
	}
	out["trace.overhead_frac"] = value{median(tWalls)/median(uWalls) - 1, "ratio"}
	return out
}

// writeRecord keeps the run's host fingerprint, metrics and raw passes in
// results/<tag>.json, and a traced run's spans in traces/<tag>.jsonl.
func writeRecord(tag string, host hostInfo, res *result) error {
	var spans []span
	passes := make([]*passRun, len(res.passes))
	for i, p := range res.passes {
		spans = append(spans, p.Spans...)
		cp := *p
		cp.Spans = nil
		passes[i] = &cp
	}
	rec := map[string]any{
		"host":    host,
		"result":  res.summary,
		"fill":    res.fill,
		"passes":  passes,
		"setups":  res.setups,
		"errors":  res.errors,
		"written": time.Now().UTC().Format(time.RFC3339),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(outDir, "results", tag+".json"), data); err != nil {
		return err
	}
	if len(spans) == 0 {
		return nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return writeFile(filepath.Join(outDir, "traces", tag+".jsonl"), buf.Bytes())
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// referenceMain prints the digests reference.json commits: the paper
// suite's and the sweep's at the default seed, each from a cold pass in a
// fresh process.
func referenceMain() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(outDir, "ref-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	r := &runner{ctx: ctx, self: self, work: work, seed: defaultSeed}
	ref := reference{SweepSeed: defaultSeed}
	for _, name := range []string{"paper-cold", "sweep-fleet"} {
		w, _ := workloadByName(name)
		p, err := r.spawn(w, r.freshStore(), false, false)
		if err == nil && (len(p.Errors) > 0 || p.Failed > 0) {
			err = errors.New(strings.Join(p.Errors, "; "))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if w.paper {
			ref.Paper = p.Digest
		} else {
			ref.Sweep = p.Digest
		}
	}
	data, _ := json.MarshalIndent(ref, "", "  ")
	fmt.Println(string(data))
	return 0
}
