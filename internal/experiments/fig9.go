package experiments

import (
	"fmt"
	"strings"
	"sync"

	"astro/internal/hw"
	"astro/internal/rl"
	"astro/internal/tablefmt"
	"astro/internal/trace"
)

// Fig9Row is one strategy's outcome on the fluidanimate trace study.
type Fig9Row struct {
	Strategy string
	TimeS    float64
	EnergyJ  float64
	Switches int
}

// Fig9Result reproduces Fig. 9 (Sec. 4.1): the simulated-environment
// comparison on fluidanimate traces between fixed configurations, the
// greedy oracles, Astro, Hipster, Octopus-Man and a random chooser.
type Fig9Result struct {
	Scale Scale
	Rows  []Fig9Row
}

// Fig9 records one trace per configuration and replays the strategies.
func Fig9(sc Scale) (*Fig9Result, error) {
	plat := hw.OdroidXU4()
	art, err := prepare("fluidanimate")
	if err != nil {
		return nil, err
	}
	opts := simOpts(sc, 3)
	opts.Args = argsFor(sc, art.spec)
	// Finer checkpoints than the device experiments: the replay study needs
	// many rows per trace for the learners to see phase structure (the
	// paper's traces span hundreds of 500 ms checkpoints).
	opts.CheckpointS /= 2.5
	set, err := trace.RecordSet(art.learning, plat, opts, nil, Workers()) // all 24 configs
	if err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}

	start := plat.AllOn()
	out := &Fig9Result{Scale: sc}
	add := func(name string, res trace.ReplayResult) {
		out.Rows = append(out.Rows, Fig9Row{
			Strategy: name, TimeS: res.TimeS, EnergyJ: res.EnergyJ, Switches: res.Switches,
		})
	}

	// Fixed baselines of the figure.
	for _, cfg := range []hw.Config{{Little: 4, Big: 4}, {Little: 1}} {
		res, err := set.Replay(&trace.FixedPolicy{Config: cfg}, cfg)
		if err != nil {
			return nil, err
		}
		add(cfg.String(), res)
	}
	// Oracles.
	oe, err := set.Replay(trace.OracleE(), start)
	if err != nil {
		return nil, err
	}
	add("Oracle(E)", oe)
	ot, err := set.Replay(trace.OracleT(), start)
	if err != nil {
		return nil, err
	}
	add("Oracle(T)", ot)

	// Astro, and Hipster (the same learner without program phases): train
	// the neural Q-learners on replays, then exploit. Replays are cheap (no
	// simulation), so the training budget is generous. Each learner owns its
	// agent and Replay only reads the set, so the two train at the same time
	// on up to Workers() goroutines.
	episodes := 12 * episodesFor(sc)
	learners := []*trace.RLPolicy{
		trace.NewAstroReplay(rl.NewDQN(plat.NumConfigs(), rl.DQNConfig{Seed: 101, LR: 0.05}), plat, true),
		trace.NewHipsterReplay(rl.NewDQN(plat.NumConfigs(), rl.DQNConfig{Seed: 102, LR: 0.05}), plat, true),
	}
	learned := make([]trace.ReplayResult, len(learners))
	errs := make([]error, len(learners))
	slots := make(chan struct{}, Workers())
	var wg sync.WaitGroup
	for i, pol := range learners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			learned[i], errs[i] = trainReplay(set, pol, start, episodes)
		}()
	}
	wg.Wait()
	for i, name := range []string{"Astro", "Hipster"} {
		if errs[i] != nil {
			return nil, errs[i]
		}
		add(name, learned[i])
	}

	// Octopus-Man ladder and the random control.
	or, err := set.Replay(trace.NewOctopusReplay(plat), hw.Config{Little: 1})
	if err != nil {
		return nil, err
	}
	add("Octopus-Man", or)
	rr, err := set.Replay(&trace.RandomPolicy{Seed: 31}, start)
	if err != nil {
		return nil, err
	}
	add("Random", rr)

	return out, nil
}

// trainReplay trains pol over episodes learning replays from start, then
// returns its greedy replay.
func trainReplay(set *trace.Set, pol *trace.RLPolicy, start hw.Config, episodes int) (trace.ReplayResult, error) {
	for ep := 0; ep < episodes; ep++ {
		if _, err := set.Replay(pol, start); err != nil {
			return trace.ReplayResult{}, err
		}
	}
	pol.Learn = false
	return set.Replay(pol, start)
}

// Row returns a strategy's row (nil if absent).
func (r *Fig9Result) Row(name string) *Fig9Row {
	for i := range r.Rows {
		if r.Rows[i].Strategy == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render formats the comparison.
func (r *Fig9Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "FIG 9 — Scheduling strategies on fluidanimate traces (%s scale)\n\n", r.Scale)
	tb := tablefmt.NewTable("strategy", "time (s)", "energy (J)", "switches")
	for _, row := range r.Rows {
		tb.Row(row.Strategy, row.TimeS, row.EnergyJ, row.Switches)
	}
	sb.WriteString(tb.String())
	if a, ot, oe := r.Row("Astro"), r.Row("Oracle(T)"), r.Row("Oracle(E)"); a != nil && ot != nil && oe != nil {
		fmt.Fprintf(&sb, "\nRQ1: Astro vs Oracle(T): %+.1f%% time, %+.1f%% energy; vs Oracle(E): %+.1f%% energy\n",
			100*(a.TimeS/ot.TimeS-1), 100*(a.EnergyJ/ot.EnergyJ-1), 100*(a.EnergyJ/oe.EnergyJ-1))
	}
	if a, f, s := r.Row("Astro"), r.Row("4L4B"), r.Row("1L0B"); a != nil && f != nil && s != nil {
		fmt.Fprintf(&sb, "RQ2: 4L4B is %+.1f%% time vs Astro (energy %+.1f%%); 1L0B is %.1fx slower, %.1fx more energy\n",
			100*(f.TimeS/a.TimeS-1), 100*(f.EnergyJ/a.EnergyJ-1), s.TimeS/a.TimeS, s.EnergyJ/a.EnergyJ)
	}
	if a, h, o := r.Row("Astro"), r.Row("Hipster"), r.Row("Octopus-Man"); a != nil && h != nil && o != nil {
		fmt.Fprintf(&sb, "RQ3: Astro vs Hipster: %+.1f%% time, %+.1f%% energy; vs Octopus-Man: %+.1f%% time, %+.1f%% energy\n",
			100*(a.TimeS/h.TimeS-1), 100*(a.EnergyJ/h.EnergyJ-1),
			100*(a.TimeS/o.TimeS-1), 100*(a.EnergyJ/o.EnergyJ-1))
	}
	return sb.String()
}
