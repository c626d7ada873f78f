package main

import (
	"fmt"
	"math"
	"strings"
)

// metricDef names one reported metric; BENCHMARK.json at the repository
// root lists the same names (TestBenchmarkJSONMatches keeps them in step).
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees, measured on
// untraced passes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cells_per_s", "1/s", "higher"},
	{"sim_minstr_per_s", "Minstr/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics of a traced pass, named
// <module>.<metric>. A layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"experiments.fig1_s", "s", "lower"},
	{"experiments.fig3_s", "s", "lower"},
	{"experiments.fig4_s", "s", "lower"},
	{"experiments.fig9_s", "s", "lower"},
	{"experiments.fig10_s", "s", "lower"},
	{"experiments.other_s", "s", "lower"},

	{"campaign.run_s", "s", "lower"},
	{"campaign.train_s", "s", "lower"},
	{"campaign.cells_executed", "count", "lower"},
	{"campaign.cells_hit", "count", "higher"},
	{"campaign.cells_failed", "count", "lower"},
	{"campaign.train_trained", "count", "lower"},
	{"campaign.train_hit", "count", "higher"},
	{"campaign.hit_ratio", "ratio", "higher"},

	{"sim.runs", "count", "lower"},
	{"sim.minstr", "Minstr", "lower"},
	{"sim.quanta", "count", "lower"},
	{"sim.compiles", "count", "lower"},
	{"sim.compile_hits", "count", "higher"},
	{"sim.program_decodes", "count", "lower"},
	{"sim.execute_s", "s", "lower"},

	{"store.get_n", "count", "lower"},
	{"store.get_s", "s", "lower"},
	{"store.get_hit_ratio", "ratio", "higher"},
	{"store.read_mb", "MB", "lower"},
	{"store.put_n", "count", "lower"},
	{"store.put_s", "s", "lower"},
	{"store.write_mb", "MB", "lower"},
	{"store.disk_writes", "count", "lower"},

	{"http.lease_n", "count", "lower"},
	{"http.lease_s", "s", "lower"},
	{"http.lease_handler_s", "s", "lower"},
	{"http.result_n", "count", "lower"},
	{"http.result_s", "s", "lower"},
	{"http.result_handler_s", "s", "lower"},
	{"http.other_n", "count", "lower"},
	{"http.other_s", "s", "lower"},
	{"http.other_handler_s", "s", "lower"},

	{"queue.leases", "count", "lower"},
	{"queue.requeues", "count", "lower"},
	{"queue.rejects", "count", "lower"},
	{"queue.duplicates", "count", "lower"},
	{"queue.lease_wait_s", "s", "lower"},

	{"worker.execute_s", "s", "lower"},
	{"worker.busy_frac", "ratio", "higher"},
	{"worker.lease_errors", "count", "lower"},

	{"program.ships", "count", "lower"},
	{"program.hits", "count", "higher"},
	{"program.rejects", "count", "lower"},

	{"scenario.materialize_s", "s", "lower"},
	{"scenario.expand_s", "s", "lower"},

	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.unaccounted_frac", "ratio", "lower"},
}

// spanTolerance is how far, in seconds, a span may stick out of its
// parent before the trace counts as broken; a parent's and a child's clock
// reads can be made on different goroutines.
const spanTolerance = 0.005

// layerMetrics derives a traced pass's per-layer metrics from its spans,
// the wrappers' byte counts and the telemetry deltas. trace.overhead_frac
// needs the untraced passes and is filled in by the benchmark.
func layerMetrics(res passResult, setup map[string]float64, rec *recorder, w workload) map[string]float64 {
	c := res.Counts
	sum := map[string]float64{}
	n := map[string]float64{}
	for _, s := range res.Spans {
		sum[s.Name] += s.dur()
		n[s.Name]++
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	l := map[string]float64{}
	for _, fig := range []string{"fig1", "fig3", "fig4", "fig9", "fig10"} {
		l["experiments."+fig+"_s"] = sum["experiments."+fig]
	}
	l["experiments.other_s"] = sum["experiments.fig6"] + sum["experiments.fig11"] + sum["experiments.table1"] + sum["experiments.headline"]

	l["campaign.run_s"] = sum["campaign.run"]
	l["campaign.train_s"] = sum["campaign.train"]
	if w.paper {
		l["campaign.cells_executed"] = c["pool.executed"]
		l["campaign.cells_hit"] = c["pool.hit"]
	} else {
		l["campaign.cells_executed"] = float64(res.Cells - res.Hits - res.Failed)
		l["campaign.cells_hit"] = float64(res.Hits)
	}
	l["campaign.cells_failed"] = float64(res.Failed)
	l["campaign.train_trained"] = c["train.trained"]
	l["campaign.train_hit"] = c["train.hit"]
	l["campaign.hit_ratio"] = ratio(float64(res.Hits), float64(res.Cells))

	l["sim.runs"] = c["sim.runs"]
	l["sim.minstr"] = c["sim.instructions"] / 1e6
	l["sim.quanta"] = c["sim.quanta"]
	l["sim.compiles"] = c["sim.compiles"]
	l["sim.compile_hits"] = c["sim.compile_hits"]
	l["sim.program_decodes"] = c["sim.program_decodes"]
	l["sim.execute_s"] = c["pool.execute_s"] + c["queue.execute_sim_s"]

	l["store.get_n"] = n["store.get"]
	l["store.get_s"] = sum["store.get"]
	l["store.get_hit_ratio"] = ratio(float64(rec.getHits.Load()), n["store.get"])
	l["store.read_mb"] = float64(rec.readBytes.Load()) / 1e6
	l["store.put_n"] = n["store.put"]
	l["store.put_s"] = sum["store.put"]
	l["store.write_mb"] = float64(rec.wrBytes.Load()) / 1e6
	l["store.disk_writes"] = c["store.disk_writes"]

	for _, op := range []string{"lease", "result", "other"} {
		l["http."+op+"_n"] = n["http.client."+op]
		l["http."+op+"_s"] = sum["http.client."+op]
		l["http."+op+"_handler_s"] = sum["http.handler."+op]
	}

	for _, k := range []string{"leases", "requeues", "rejects", "duplicates", "lease_wait_s"} {
		l["queue."+k] = c["queue."+k]
	}

	l["worker.execute_s"] = c["queue.execute_sim_s"] + c["queue.execute_train_s"]
	if w.fleet {
		l["worker.busy_frac"] = ratio(l["worker.execute_s"], fleetWorkers*res.WallS)
	}
	l["worker.lease_errors"] = c["worker.lease_errors"]

	for _, k := range []string{"ships", "hits", "rejects"} {
		l["program."+k] = c["program."+k]
	}

	l["scenario.materialize_s"] = setup["scenario.materialize_s"]
	l["scenario.expand_s"] = setup["scenario.expand_s"]

	l["trace.unaccounted_frac"] = 1 - coverage(coveringSpans(res.Spans), res.WallS)
	return l
}

// coveringSpans are the spans trace.unaccounted_frac counts as explained
// time: the experiments figures on the paper suite, and the store, HTTP and
// worker-cell spans on every workload. Campaign spans are left out: a
// sweep's batches run back to back inside them, so they would cover time
// that no layer below them explains.
func coveringSpans(spans []span) []span {
	var out []span
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "campaign.") {
			out = append(out, s)
		}
	}
	return out
}

// checkAccounted checks that the layer times the pass reports explain the
// covered share of wall_s, 1 - trace.unaccounted_frac. The paper suite's
// figures run one after another, so their times must add up to it. On a
// sweep the covering spans overlap across workers and nest (a store put
// inside a /result handler inside its client call), so their times must add
// up to at least it.
func checkAccounted(l map[string]float64, wall float64, paper bool, tol float64) []string {
	covered := (1 - l["trace.unaccounted_frac"]) * wall
	var sum float64
	if paper {
		for _, fig := range []string{"fig1", "fig3", "fig4", "fig9", "fig10", "other"} {
			sum += l["experiments."+fig+"_s"]
		}
		if math.Abs(sum-covered) > tol {
			return []string{fmt.Sprintf("trace: experiments spans sum to %.3f s, but cover %.3f s of wall_s", sum, covered)}
		}
		return nil
	}
	for _, k := range []string{"store.get_s", "store.put_s", "http.lease_s", "http.result_s", "http.other_s", "worker.execute_s"} {
		sum += l[k]
	}
	if sum < covered-tol {
		return []string{fmt.Sprintf("trace: store, http and worker times sum to %.3f s, but their spans cover %.3f s of wall_s", sum, covered)}
	}
	return nil
}
