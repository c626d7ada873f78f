package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary as the
// pass process the tests spawn.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "pass" {
		os.Exit(passMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func testRunner(t *testing.T) *runner {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	t.Cleanup(cancel)
	return &runner{ctx: ctx, self: self, work: t.TempDir(), seed: defaultSeed}
}

// invariantCounts are the counts a pass must repeat exactly whether traced
// or not: the simulation and store work its output took.
var invariantCounts = []string{
	"sim.runs", "sim.instructions", "sim.quanta",
	"pool.hit", "pool.executed", "pool.error",
	"train.hit", "train.trained", "train.error",
	"store.puts", "store.disk_writes",
	"queue.leases", "program.ships",
}

// TestTracedPassMatchesUntraced is the benchmark's twin of DESIGN.md
// invariant 8: the timing wrappers of a traced pass change no digest and
// no count. Each workload runs one untraced and one traced pass in fresh
// processes; the warm workloads share one store filled by a cold pass.
func TestTracedPassMatchesUntraced(t *testing.T) {
	names := []string{"sweep-fleet", "sweep-warm", "paper-warm"}
	if !testing.Short() {
		names = append(names, "paper-cold")
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			r := testRunner(t)
			fillDigest := ""
			store := func() string { return r.freshStore() }
			if w.fill != "" {
				cold, _ := workloadByName(w.fill)
				dir := filepath.Join(r.work, "warm")
				fill, err := r.spawn(cold, dir, false, false)
				if err != nil {
					t.Fatal(err)
				}
				fillDigest = fill.Digest
				store = func() string { return dir }
			}
			plain, err := r.spawn(w, store(), false, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := r.spawn(w, store(), true, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*passRun{plain, traced} {
				if bad := checkPass(name, p, ref, r.seed, w, fillDigest); len(bad) > 0 {
					t.Errorf("traced=%v: %v", p.Traced, bad)
				}
			}
			if plain.Digest != traced.Digest || plain.Cells != traced.Cells || plain.Hits != traced.Hits {
				t.Errorf("traced pass differs: digest %s/%s cells %d/%d hits %d/%d",
					plain.Digest, traced.Digest, plain.Cells, traced.Cells, plain.Hits, traced.Hits)
			}
			for _, k := range invariantCounts {
				if plain.Counts[k] != traced.Counts[k] {
					t.Errorf("%s: untraced %v, traced %v", k, plain.Counts[k], traced.Counts[k])
				}
			}
			if len(traced.Spans) == 0 || len(traced.Layers) == 0 {
				t.Errorf("traced pass recorded %d spans, %d layer metrics", len(traced.Spans), len(traced.Layers))
			}
			if len(plain.Spans) != 0 || len(plain.Layers) != 0 {
				t.Errorf("untraced pass recorded %d spans, %d layer metrics", len(plain.Spans), len(plain.Layers))
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics in
// step with the ones the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestCoverageMergesOverlaps(t *testing.T) {
	spans := []span{{Start: 0, End: 2}, {Start: 1, End: 3}, {Start: 5, End: 6}, {Start: 9, End: 12}}
	if got := coverage(spans, 10); got != 0.5 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
}

func TestCoveringSpansLeaveOutCampaign(t *testing.T) {
	spans := []span{
		{Name: "campaign.run", Start: 0, End: 10},
		{Name: "store.get", Start: 1, End: 2},
		{Name: "worker.cell", Lane: "w0", Start: 4, End: 5},
	}
	if got := coverage(coveringSpans(spans), 10); got != 0.2 {
		t.Errorf("coverage = %v, want 0.2: a campaign span explains no time", got)
	}
}

func TestCheckAccounted(t *testing.T) {
	paper := map[string]float64{"experiments.fig1_s": 1, "experiments.fig9_s": 2, "trace.unaccounted_frac": 0.25}
	if bad := checkAccounted(paper, 4, true, spanTolerance); len(bad) != 0 {
		t.Errorf("figures that tile the covered time: %q", bad)
	}
	paper["experiments.fig9_s"] = 2.5 // more than the figures' spans cover
	if bad := checkAccounted(paper, 4, true, spanTolerance); len(bad) != 1 {
		t.Errorf("figures that overshoot the covered time: %q", bad)
	}
	sweep := map[string]float64{"store.put_s": 1, "http.result_s": 1.5, "worker.execute_s": 1, "trace.unaccounted_frac": 0.5}
	if bad := checkAccounted(sweep, 4, false, spanTolerance); len(bad) != 0 {
		t.Errorf("nested layer times above the covered time: %q", bad)
	}
	sweep["trace.unaccounted_frac"] = 0
	sweep["http.result_s"] = 0.5
	if bad := checkAccounted(sweep, 4, false, spanTolerance); len(bad) != 1 {
		t.Errorf("layer times below the covered time: %q", bad)
	}
}

func TestCheckSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "campaign.run", Start: 0, End: 1},
		{ID: 2, Parent: 1, Name: "store.put", Start: 0.5, End: 0.6},
		{ID: 3, Parent: 1, Name: "http.client.result", Start: 0.7, End: 0.8},
		{ID: 4, Parent: 3, Name: "http.handler.result", Start: 0.75, End: 0.9}, // may outlast its client
		{ID: 5, Parent: 1, Name: "store.get", Start: 0.9, End: 1.5},            // outside its parent
		{ID: 6, Parent: 7, Name: "store.get", Start: 0.1, End: 0.2},            // parent missing
	}
	if bad := checkSpans(spans, spanTolerance); len(bad) != 2 {
		t.Errorf("checkSpans = %q, want the two broken spans", bad)
	}
}
