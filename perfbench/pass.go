package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"astro/internal/telemetry"
)

// passResult is what one pass process reports to the benchmark, as the
// last line of its standard output.
type passResult struct {
	ReadyAt int64   `json:"ready_at"` // Unix ns when set-up finished
	WallS   float64 `json:"wall_s"`
	Digest  string  `json:"digest"`
	Cells   int     `json:"cells"`
	Hits    int     `json:"hits"`
	Failed  int     `json:"failed"`
	AllocMB float64 `json:"alloc_mb"`
	// PeakRSSMB is the process's own high-water resident set. It is read
	// here rather than from the parent's wait status, whose maxrss also
	// counts the parent's memory from before the exec.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Counts are telemetry.Default deltas over the timed part, measured the
	// same way in traced and untraced passes.
	Counts map[string]float64 `json:"counts"`
	// Layers and Spans come from traced passes only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
	Errors []string           `json:"errors,omitempty"`
}

// counted maps a count's name to the telemetry.Default instrument it reads:
// a counter's value, or a histogram's sum when the name ends in _s.
var counted = map[string]string{
	"sim.runs":              "astro_sim_runs_total",
	"sim.instructions":      "astro_sim_instructions_total",
	"sim.quanta":            "astro_sim_quanta_total",
	"sim.compiles":          "astro_sim_compiles_total",
	"sim.compile_hits":      "astro_sim_compile_cache_hits_total",
	"sim.program_decodes":   "astro_sim_program_decodes_total",
	"pool.hit":              `astro_pool_cells_total{result="hit"}`,
	"pool.executed":         `astro_pool_cells_total{result="executed"}`,
	"pool.error":            `astro_pool_cells_total{result="error"}`,
	"pool.execute_s":        "astro_pool_execute_seconds",
	"train.hit":             `astro_train_cells_total{result="hit"}`,
	"train.trained":         `astro_train_cells_total{result="trained"}`,
	"train.error":           `astro_train_cells_total{result="error"}`,
	"store.puts":            "astro_store_puts_total",
	"store.disk_writes":     "astro_store_disk_writes_total",
	"queue.leases":          "astro_queue_leases_total",
	"queue.requeues":        "astro_queue_requeues_total",
	"queue.rejects":         "astro_queue_rejects_total",
	"queue.duplicates":      "astro_queue_duplicates_total",
	"queue.lease_wait_s":    "astro_queue_lease_wait_seconds",
	"queue.execute_sim_s":   `astro_queue_execute_seconds{kind="sim"}`,
	"queue.execute_train_s": `astro_queue_execute_seconds{kind="train"}`,
	"worker.lease_errors":   "astro_worker_lease_errors_total",
	"program.ships":         "astro_program_ships_total",
	"program.hits":          "astro_worker_program_hits_total",
	"program.rejects":       "astro_worker_program_rejects_total",
}

func readCounts() map[string]float64 {
	snap := telemetry.Default.Snapshot()
	out := make(map[string]float64, len(counted))
	for name, metric := range counted {
		m := snap[metric]
		if m.Kind == "histogram" {
			out[name] = m.Sum
		} else {
			out[name] = m.Value
		}
	}
	return out
}

// passMain runs one pass of a workload in this fresh process: set-up, then
// the timed part, then the output check. Process-wide state (the
// simulator's compiled-program cache, telemetry.Default, the experiments
// executor) therefore starts empty, as in a user's CLI run.
func passMain(args []string) int {
	fs := flag.NewFlagSet("pass", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	dir := fs.String("store", "", "result store directory")
	traced := fs.Bool("trace", false, "wrap the layers with timing spans")
	setupOnly := fs.Bool("setup-only", false, "stop after set-up")
	runID := fs.String("run", "", "span run identifier")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *dir == "" {
		fmt.Fprintf(os.Stderr, "perfbench pass: unknown workload %q or no -store\n", *name)
		return 2
	}
	var rec *recorder
	if *traced {
		rec = newRecorder(*runID)
	}
	p, err := setupPass(w, *seed, *dir, rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench pass: %s set-up: %v\n", w.name, err)
		return 1
	}
	res := passResult{ReadyAt: time.Now().UnixNano()}
	if *setupOnly {
		p.close()
		return emit(res)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := readCounts()
	if rec != nil {
		rec.origin = time.Now()
	}
	start := time.Now()
	out, err := p.run(context.Background())
	wall := time.Since(start).Seconds()
	after := readCounts()
	runtime.ReadMemStats(&m1)
	peakRSS, rssErr := peakRSSMB()

	res.WallS = wall
	res.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	res.Counts = make(map[string]float64, len(after))
	for k, v := range after {
		res.Counts[k] = v - before[k]
	}
	res.Digest, res.Cells, res.Hits, res.Failed = out.digest, out.cells, out.hits, out.failed
	if w.paper {
		// The paper suite hands its cells to the executor internally;
		// count them from the campaign layer's own counters.
		c := res.Counts
		res.Cells = int(c["pool.hit"] + c["pool.executed"] + c["pool.error"] + c["train.hit"] + c["train.trained"] + c["train.error"])
		res.Hits = int(c["pool.hit"] + c["train.hit"])
		res.Failed = int(c["pool.error"] + c["train.error"])
	}
	if err != nil {
		res.Errors = append(res.Errors, err.Error())
	}
	res.PeakRSSMB = peakRSS
	if rssErr != nil {
		res.Errors = append(res.Errors, rssErr.Error())
	}
	res.Errors = append(res.Errors, p.check(out)...)
	p.close()
	if rec != nil {
		res.Spans = rec.finish(wall)
		res.Layers = layerMetrics(res, p.layers, rec, w)
		if bad := checkSpans(res.Spans, spanTolerance); len(bad) > 0 {
			res.Errors = append(res.Errors, fmt.Sprintf("trace: %d spans break the tree, first: %s", len(bad), bad[0]))
		}
		res.Errors = append(res.Errors, checkAccounted(res.Layers, wall, w.paper, spanTolerance)...)
	}
	return emit(res)
}

func emit(res passResult) int {
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench pass:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
