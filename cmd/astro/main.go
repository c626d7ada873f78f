// Command astro is the toolchain CLI: compile astc programs, inspect
// features and phases, disassemble IR, run programs on the simulated
// big.LITTLE board, and train/imprint Astro policies.
//
// Usage:
//
//	astro features  <file.astc | bench:name>
//	astro disasm    <file.astc | bench:name>
//	astro run       [-sched gts|default] [-config 2L3B] [-scale N] [-threads N] [-seed N] <prog>
//	astro train     [-episodes N] [-scale N] [-threads N] [-seed N] <prog>
//	astro bench     (list bundled benchmarks)
//	astro campaign  [-spec file.json | -bench patterns] [-sched ...] [-configs ...]
//	                [-seeds ...] [-j N] [-workers N] [-cache dir] [-timeout d]
//	astro scenario  generate [-seed N] [-cpu N -io N -blocked N -mixed N] [...]
//	astro scenario  sweep|report [-spec matrix.json | -programs N -zoo ...] [-workers N]
//	astro worker    [-coordinator URL] [-id name] [-max N] [-cache dir]
//	astro journal   replay [-store dir] <journal-dir>
//	astro fleet     top [-coordinator URL] [-token t] [-interval d] [-frames N]
//
// Programs are either astc source paths or "bench:<name>" for a bundled
// benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"astro/internal/features"
	"astro/internal/hw"
	"astro/internal/instrument"
	"astro/internal/ir"
	"astro/internal/lang"
	"astro/internal/rl"
	"astro/internal/sched"
	"astro/internal/sim"
	"astro/internal/tablefmt"
	"astro/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "features":
		err = cmdFeatures(args)
	case "disasm":
		err = cmdDisasm(args)
	case "run":
		err = cmdRun(args)
	case "train":
		err = cmdTrain(args)
	case "bench":
		err = cmdBench()
	case "campaign":
		err = cmdCampaign(args)
	case "scenario":
		err = cmdScenario(args)
	case "worker":
		err = cmdWorker(args)
	case "journal":
		err = cmdJournal(args)
	case "fleet":
		err = cmdFleet(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "astro:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: astro <features|disasm|run|train|bench|campaign|scenario|worker|journal|fleet> [flags] <file.astc | bench:name>`)
}

// load resolves a program argument to a module.
func load(arg string) (*ir.Module, workloads.Spec, error) {
	if name, ok := strings.CutPrefix(arg, "bench:"); ok {
		spec, ok := workloads.ByName(name)
		if !ok {
			return nil, spec, fmt.Errorf("unknown benchmark %q; try 'astro bench'", name)
		}
		mod, err := spec.Compile()
		return mod, spec, err
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, workloads.Spec{}, err
	}
	mod, err := lang.Compile(arg, string(data))
	return mod, workloads.Spec{SmallScale: 1000, DefaultScale: 1000, Threads: 4}, err
}

func cmdBench() error {
	tb := tablefmt.NewTable("name", "suite", "description")
	for _, s := range workloads.All() {
		tb.Row(s.Name, s.Suite, s.Desc)
	}
	fmt.Print(tb.String())
	return nil
}

func cmdFeatures(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("features takes one program argument")
	}
	mod, _, err := load(args[0])
	if err != nil {
		return err
	}
	mi := features.AnalyzeModule(mod, features.Options{})
	tb := tablefmt.NewTable("function", "phase", "io", "mem", "int", "fp", "lock", "nest", "io-weight", "flags")
	for _, f := range mi.Funcs {
		flags := ""
		if f.Vec.Barrier {
			flags += "B"
		}
		if f.Vec.Net {
			flags += "N"
		}
		if f.Vec.Sleep {
			flags += "S"
		}
		tb.Row(f.Name, f.Phase.String(), f.Vec.IODens, f.Vec.MemDens, f.Vec.IntDens,
			f.Vec.FPDens, f.Vec.LockDens, f.Vec.NestingFactor, f.Vec.IOWeight, flags)
	}
	fmt.Print(tb.String())
	return nil
}

func cmdDisasm(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("disasm takes one program argument")
	}
	mod, _, err := load(args[0])
	if err != nil {
		return err
	}
	fmt.Print(ir.Disassemble(mod))
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	schedName := fs.String("sched", "gts", "OS scheduler: gts or default")
	platName := fs.String("platform", "odroid-xu4", "platform name (built-in or zoo:...)")
	configStr := fs.String("config", "", "pin a hardware configuration, e.g. 2L3B")
	scale := fs.Int64("scale", 0, "benchmark scale (0 = benchmark default)")
	threads := fs.Int64("threads", 0, "worker threads (0 = benchmark default)")
	seed := fs.Int64("seed", 1, "simulation seed")
	optimize := fs.Bool("O", false, "run the IR optimizer before execution")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run takes one program argument")
	}
	// Validate every flag before loading or simulating anything, so typos
	// fail with the valid choices instead of silently running a default.
	if *schedName != "gts" && *schedName != "default" {
		return fmt.Errorf("unknown scheduler %q (have gts, default)", *schedName)
	}
	plat, err := hw.ByName(*platName)
	if err != nil {
		return err
	}
	opts := sim.Options{Seed: *seed, CaptureOutput: true}
	if *schedName == "gts" {
		opts.OS = sched.NewGTS()
	}
	if *configStr != "" {
		cfg, err := hw.ParseConfig(*configStr)
		if err != nil {
			return err
		}
		if !cfg.Valid(plat.MaxLittle(), plat.MaxBig()) {
			return fmt.Errorf("config %v invalid on %s (max %dL%dB)",
				cfg, plat.Name, plat.MaxLittle(), plat.MaxBig())
		}
		opts.InitialConfig = cfg
	}
	mod, spec, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	if *optimize {
		n := ir.Optimize(mod)
		fmt.Printf("optimizer: %d rewrites\n", n)
	}
	opts.Args = progArgs(mod, spec, *scale, *threads)
	res, err := sim.Execute(mod, plat, opts, nil)
	if err != nil {
		return err
	}
	fmt.Printf("time      %.6f s\nenergy    %.6f J\npower     %.3f W\ninstr     %d (%.1f MIPS)\nswitches  %d\nmigrations %d\nfinal cfg %v\n",
		res.TimeS, res.EnergyJ, res.AvgWatts(), res.Instructions, res.MIPS(), res.Switches, res.Migrations, res.FinalConfig)
	if len(res.Output) > 0 {
		n := len(res.Output)
		if n > 10 {
			n = 10
		}
		fmt.Printf("output    %v", res.Output[:n])
		if len(res.Output) > n {
			fmt.Printf(" ... (%d more)", len(res.Output)-n)
		}
		fmt.Println()
	}
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	episodes := fs.Int("episodes", 10, "training episodes")
	scale := fs.Int64("scale", 0, "benchmark scale (0 = benchmark default)")
	threads := fs.Int64("threads", 0, "worker threads (0 = benchmark default)")
	seed := fs.Int64("seed", 1, "training seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("train takes one program argument")
	}
	mod, spec, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	plat := hw.OdroidXU4()
	mi := features.AnalyzeModule(mod, features.Options{})
	learn, err := instrument.ForLearning(mod, mi)
	if err != nil {
		return err
	}
	agent := rl.NewDQN(plat.NumConfigs(), rl.DQNConfig{Seed: *seed})
	act := sched.NewAstro(agent, plat, true)
	stats, err := sched.Train(learn, plat, act, sched.TrainOptions{
		Episodes: *episodes,
		Seed:     *seed,
		Args:     progArgs(mod, spec, *scale, *threads),
		SimOpts:  sim.Options{OS: sched.NewGTS()},
	})
	if err != nil {
		return err
	}
	tb := tablefmt.NewTable("episode", "time (s)", "energy (J)", "reward")
	for _, s := range stats {
		tb.Row(s.Episode, s.TimeS, s.EnergyJ, s.Reward)
	}
	fmt.Print(tb.String())
	pol := sched.ExtractPolicyVisited(agent, plat, act.Visits())
	fmt.Println("\nextracted policy:")
	for p, cfg := range pol.PerPhase {
		fmt.Printf("  %-9v -> %v\n", features.Phase(p), cfg)
	}
	return nil
}

// progArgs builds main's arguments, honoring overrides.
func progArgs(mod *ir.Module, spec workloads.Spec, scale, threads int64) []int64 {
	mainFn := mod.FuncByName("main")
	if mainFn == nil || len(mainFn.Params) == 0 {
		return nil
	}
	s := spec.DefaultScale
	if scale > 0 {
		s = scale
	}
	t := spec.Threads
	if threads > 0 {
		t = threads
	}
	args := []int64{s, t}
	return args[:len(mainFn.Params)]
}
