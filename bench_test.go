package astro

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (run the drivers at small scale and report the headline
// metrics), plus component micro-benchmarks and the ablation benches called
// out in DESIGN.md (reward exponent, learner type, phase awareness).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The paper-scale reproduction recorded in EXPERIMENTS.md comes from
// cmd/astro-experiments -scale paper.

import (
	"sync"
	"testing"

	"astro/internal/campaign"
	"astro/internal/experiments"
	"astro/internal/hw"
	"astro/internal/rl"
	"astro/internal/sim"
	"astro/internal/trace"
	"astro/internal/workloads"
)

// coldStores makes a figure benchmark that runs through the experiments
// executor time simulations rather than cache hits: the returned function,
// called at the top of each iteration, installs an empty result store, and
// the executor's previous store comes back when the benchmark ends.
func coldStores(b *testing.B) func() {
	prev := experiments.Store()
	b.Cleanup(func() { experiments.Configure(experiments.ExecConfig{Store: prev}) })
	return func() { experiments.Configure(experiments.ExecConfig{Store: campaign.NewMemStore()}) }
}

// BenchmarkFig1EnergyTimeSweep regenerates Fig. 1 (24-configuration
// energy/time sweep of freqmine and streamcluster).
func BenchmarkFig1EnergyTimeSweep(b *testing.B) {
	coldStore := coldStores(b)
	for i := 0; i < b.N; i++ {
		coldStore()
		r, err := experiments.Fig1(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		pts := r.Points["freqmine"]
		b.ReportMetric(float64(len(pts)), "configs")
	}
}

// BenchmarkFig3PowerProfile regenerates Fig. 3 (matrix program power
// profile on the TK1 with 1 kHz-equivalent sampling).
func BenchmarkFig3PowerProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		min, max := r.PhaseRange()
		b.ReportMetric(max/min, "plateau/valley")
	}
}

// BenchmarkFig4BestConfigs regenerates Fig. 4 (best configuration per
// application under 1%/5% slowdown budgets).
func BenchmarkFig4BestConfigs(b *testing.B) {
	coldStore := coldStores(b)
	for i := 0; i < b.N; i++ {
		coldStore()
		r, err := experiments.Fig4(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.DistinctBest5()), "distinct-winners")
	}
}

// BenchmarkFig6PhaseMapping regenerates Fig. 6 (function-to-phase mapping
// in the Example 3.4 feature space); purely static analysis.
func BenchmarkFig6PhaseMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Rows)), "functions")
	}
}

// BenchmarkFig9TraceStudy regenerates Fig. 9 (seven strategies over the
// fluidanimate trace set) and reports Astro's distance to the time oracle.
func BenchmarkFig9TraceStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		astro, oracle := r.Row("Astro"), r.Row("Oracle(T)")
		b.ReportMetric(astro.TimeS/oracle.TimeS, "astro/oracleT")
	}
}

// BenchmarkFig10DeviceStudy regenerates Fig. 10 (GTS vs Astro static vs
// hybrid across the seven device benchmarks with p-values).
func BenchmarkFig10DeviceStudy(b *testing.B) {
	coldStore := coldStores(b)
	for i := 0; i < b.N; i++ {
		coldStore()
		r, err := experiments.Fig10(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		tw, ew := r.Wins()
		b.ReportMetric(float64(tw), "time-wins")
		b.ReportMetric(float64(ew), "energy-wins")
	}
}

// BenchmarkFig11CodeSize regenerates Fig. 11 (binary size accounting).
func BenchmarkFig11CodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Reports)), "benchmarks")
	}
}

// BenchmarkTable1Taxonomy renders Table 1 (static data; measures the
// formatting path).
func BenchmarkTable1Taxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.RenderTable1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md): shared fluidanimate trace set.

var (
	ablOnce sync.Once
	ablSet  *trace.Set
	ablPlat *hw.Platform
	ablErr  error
)

func ablationSet(b *testing.B) (*trace.Set, *hw.Platform) {
	b.Helper()
	ablOnce.Do(func() {
		ablPlat = hw.OdroidXU4()
		spec, _ := workloads.ByName("fluidanimate")
		mod, err := spec.Compile()
		if err != nil {
			ablErr = err
			return
		}
		prog, err := NewProgramOn(mod, ablPlat)
		if err != nil {
			ablErr = err
			return
		}
		ablSet, ablErr = trace.RecordSet(prog.Learning, ablPlat, sim.Options{
			Args:        spec.SmallArgs(),
			Seed:        3,
			CheckpointS: 160e-6,
			QuantumS:    50e-6,
			TickS:       100e-6,
		}, nil, 1) // one worker: the ablation keeps measuring serial recording
	})
	if ablErr != nil {
		b.Fatal(ablErr)
	}
	return ablSet, ablPlat
}

func trainReplay(b *testing.B, pol *trace.RLPolicy, set *trace.Set, plat *hw.Platform, episodes int) trace.ReplayResult {
	b.Helper()
	for ep := 0; ep < episodes; ep++ {
		if _, err := set.Replay(pol, plat.AllOn()); err != nil {
			b.Fatal(err)
		}
	}
	pol.Learn = false
	res, err := set.Replay(pol, plat.AllOn())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationGamma compares the reward exponent: gamma=1 (energy
// focus, Definition 3.7) vs gamma=2 (the paper's performance-emphasizing
// energy-delay choice).
func BenchmarkAblationGamma(b *testing.B) {
	set, plat := ablationSet(b)
	for _, gamma := range []float64{1.0, 2.0} {
		gamma := gamma
		name := "gamma1"
		if gamma == 2.0 {
			name = "gamma2"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				agent := rl.NewDQN(plat.NumConfigs(), rl.DQNConfig{Seed: 11, LR: 0.05})
				pol := trace.NewAstroReplay(agent, plat, true)
				pol.Gamma = gamma
				res := trainReplay(b, pol, set, plat, 60)
				b.ReportMetric(res.TimeS*1e3, "ms")
				b.ReportMetric(res.EnergyJ*1e3, "mJ")
			}
		})
	}
}

// BenchmarkAblationAgent compares the paper's neural Q-learner against the
// tabular ablation.
func BenchmarkAblationAgent(b *testing.B) {
	set, plat := ablationSet(b)
	mk := map[string]func() rl.Agent{
		"dqn":     func() rl.Agent { return rl.NewDQN(plat.NumConfigs(), rl.DQNConfig{Seed: 12, LR: 0.05}) },
		"tabular": func() rl.Agent { return rl.NewTabular(plat.NumConfigs(), 12) },
	}
	for _, name := range []string{"dqn", "tabular"} {
		make := mk[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pol := trace.NewAstroReplay(make(), plat, true)
				res := trainReplay(b, pol, set, plat, 60)
				b.ReportMetric(res.TimeS*1e3, "ms")
			}
		})
	}
}

// BenchmarkAblationPhases compares phase-aware Astro against phase-blind
// Hipster on identical traces — the paper's central thesis in one number.
func BenchmarkAblationPhases(b *testing.B) {
	set, plat := ablationSet(b)
	variants := map[string]func(rl.Agent) *trace.RLPolicy{
		"astro":   func(a rl.Agent) *trace.RLPolicy { return trace.NewAstroReplay(a, plat, true) },
		"hipster": func(a rl.Agent) *trace.RLPolicy { return trace.NewHipsterReplay(a, plat, true) },
	}
	for _, name := range []string{"astro", "hipster"} {
		mkPol := variants[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				agent := rl.NewDQN(plat.NumConfigs(), rl.DQNConfig{Seed: 13, LR: 0.05})
				res := trainReplay(b, mkPol(agent), set, plat, 60)
				b.ReportMetric(res.TimeS*1e3, "ms")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks.

// BenchmarkSimulatorThroughput measures interpreted instructions per second
// on the 8-core machine (the substrate cost of every experiment).
func BenchmarkSimulatorThroughput(b *testing.B) {
	mod, err := Compile("spin", `
func worker(n int) {
	var i int;
	var x float = 1.0;
	for (i = 0; i < n; i = i + 1) { x = x * 1.000001 + 0.5; }
}
func main(scale int, threads int) {
	var i int;
	for (i = 0; i < threads; i = i + 1) { spawn worker(scale); }
	join();
}
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(mod, RunConfig{Args: []int64{200000, 8}, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		instr += res.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkCompile measures the astc front end on the largest bundled
// benchmark source.
func BenchmarkCompile(b *testing.B) {
	spec, _ := workloads.ByName("particlefilter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(spec.Name, spec.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDQNObserve measures one Q-learning update (with replay) — the
// per-checkpoint learning cost of the Astro runtime.
func BenchmarkDQNObserve(b *testing.B) {
	plat := hw.OdroidXU4()
	agent := rl.NewDQN(plat.NumConfigs(), rl.DQNConfig{Seed: 1})
	s := rl.State{ConfigID: 3, ProgPhase: 2, HWPhaseID: 40}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Observe(s, i%plat.NumConfigs(), 0.5, s)
	}
}
