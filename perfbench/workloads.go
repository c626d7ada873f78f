package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"astro/internal/campaign"
	"astro/internal/experiments"
	"astro/internal/scenario"
	"astro/internal/sim"
)

// The load is sized for a 2-core host: the in-process pool and the fleet
// each have two workers. Every workload is a closed loop: a batch is
// submitted and awaited before the next, and each fleet worker leases up to
// fleetLease cells, executes them one by one and submits each result before
// leasing again.
const (
	poolWorkers  = 2
	fleetWorkers = 2
	// fleetLease and fleetPoll are the cells per lease and the idle poll of
	// the `astro scenario sweep -workers N` cluster's workers.
	fleetLease = 2
	fleetPoll  = 20 * time.Millisecond
	// sweepPrograms generated programs, from sweepProgramSeed on, × the
	// 12 default zoo platforms × the 2 sweepSchedulers = 960 cells.
	sweepPrograms    = 40
	sweepProgramSeed = 1
	// checkCells fleet cells are re-executed in-process after the timed
	// part and must match the fleet's result bytes (any seed).
	checkCells = 16
)

var sweepSchedulers = []string{"default", "gts"}

// workload is one named benchmark input. Why each one exists, and which
// layer it stresses, is recorded in README.md beside this file.
type workload struct {
	name string
	// fill names the cold workload whose pass fills the store in set-up;
	// empty for a cold workload, whose every pass gets a fresh, empty store.
	fill  string
	paper bool // the paper suite; otherwise the scenario sweep
	fleet bool // sweep through the loopback coordinator and its workers
	// simFromFill: the pass simulates nothing, so sim_minstr_per_s counts
	// the instructions of the fill pass whose results it serves.
	simFromFill bool
}

var workloads = []workload{
	{name: "paper-cold", paper: true},
	{name: "paper-warm", paper: true, fill: "paper-cold"},
	{name: "sweep-fleet", fleet: true},
	{name: "sweep-warm", fill: "sweep-fleet", simFromFill: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pass is one workload pass after set-up: run is the timed part, check the
// untimed output check after it, close releases what set-up started.
type pass struct {
	run   func(ctx context.Context) (passOutput, error)
	check func(passOutput) []string
	close func()
	// layers are per-layer values measured during set-up (traced passes).
	layers map[string]float64
}

// passOutput is what a pass produced: its digest and its cells.
type passOutput struct {
	digest string
	cells  int // simulation + training cells, hit or fresh
	hits   int
	failed int
	outs   []*campaign.Outcome // sweep outcomes, for the post-run check
	jobs   []*campaign.Job
}

// setupPass builds a pass of w over the store in dir. rec is nil for an
// untraced pass; a traced pass wraps the store, runner, transport and
// handler with timing spans and changes nothing else.
func setupPass(w workload, seed int64, dir string, rec *recorder) (*pass, error) {
	store, err := campaign.NewStore(dir)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	var rs campaign.ResultStore = store
	if rec != nil {
		rs = &tracedStore{inner: store, rec: rec}
	}
	if w.paper {
		return setupPaper(rs, rec), nil
	}
	return setupSweep(w, seed, rs, rec)
}

// setupPaper configures the experiments executor as astro-experiments -j 2
// -cache does: an in-process pool over the on-disk store.
func setupPaper(store campaign.ResultStore, rec *recorder) *pass {
	cfg := experiments.ExecConfig{Workers: poolWorkers, Store: store}
	if rec != nil {
		cfg.Runner = &tracedRunner{inner: &campaign.Pool{Workers: poolWorkers, Store: store}, rec: rec}
	}
	experiments.Configure(cfg)
	return &pass{
		run:   func(context.Context) (passOutput, error) { return runPaper(rec) },
		check: func(passOutput) []string { return nil },
		close: func() {},
	}
}

// runPaper renders the whole small-scale paper suite, every figure, table1
// and the headline, as astro-experiments -scale small prints it, and
// digests the rendered text. Cells are counted by the caller from the
// campaign layer's own counters.
func runPaper(rec *recorder) (passOutput, error) {
	var (
		sb  strings.Builder
		f9  *experiments.Fig9Result
		f10 *experiments.Fig10Result
		f11 *experiments.Fig11Result
		err error
	)
	section := func(name string, f func() (string, error)) {
		if err != nil {
			return
		}
		var out string
		rec.timed("experiments."+name, func() { out, err = f() })
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
			return
		}
		sb.WriteString(out)
		sb.WriteString("\n")
	}
	section("fig1", func() (string, error) {
		r, err := experiments.Fig1(experiments.Small)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	section("fig3", func() (string, error) {
		r, err := experiments.Fig3(experiments.Small)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	section("fig4", func() (string, error) {
		r, err := experiments.Fig4(experiments.Small)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	section("fig6", func() (string, error) {
		r, err := experiments.Fig6()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	section("fig9", func() (string, error) {
		r, err := experiments.Fig9(experiments.Small)
		if err != nil {
			return "", err
		}
		f9 = r
		return r.Render(), nil
	})
	section("fig10", func() (string, error) {
		r, err := experiments.Fig10(experiments.Small)
		if err != nil {
			return "", err
		}
		f10 = r
		return r.Render(), nil
	})
	section("fig11", func() (string, error) {
		r, err := experiments.Fig11()
		if err != nil {
			return "", err
		}
		f11 = r
		return r.Render(), nil
	})
	section("table1", func() (string, error) { return experiments.RenderTable1(), nil })
	section("headline", func() (string, error) { return experiments.MakeHeadline(f9, f10, f11).Render(), nil })
	if err != nil {
		return passOutput{}, err
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return passOutput{digest: hex.EncodeToString(sum[:])}, nil
}

// sweepMatrix is the scenario matrix of the sweep workloads: the
// generated programs × the default platform zoo × the default and GTS
// schedulers, at small scale and simulator seed seed, batched as
// `astro scenario sweep -workers 2` batches it. The seed picks the
// simulator seed rather than the program seed: a program's trip counts
// follow its seed, so the sweep's simulated instructions vary by ±15%
// between program seeds, while the simulator seed changes every cell's
// key and result but not the work a cell does.
func sweepMatrix(seed int64) *scenario.Matrix {
	m := &scenario.Matrix{
		Name:         "perfbench",
		ProgramCount: sweepPrograms,
		ProgramSeed:  sweepProgramSeed,
		Zoo:          &scenario.ZooParams{},
		Schedulers:   sweepSchedulers,
		Seeds:        []int64{seed},
		Scale:        "small",
	}
	m.AutoBatch(fleetWorkers)
	return m
}

// setupSweep synthesizes and compiles the matrix, then builds the runner:
// the loopback fleet for sweep-fleet, the in-process pool otherwise.
func setupSweep(w workload, seed int64, store campaign.ResultStore, rec *recorder) (*pass, error) {
	m := sweepMatrix(seed)
	t0 := time.Now()
	specs, err := m.Campaigns()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	batches := make([][]*campaign.Job, len(specs))
	for i := range specs {
		if batches[i], err = specs[i].Expand(); err != nil {
			return nil, err
		}
	}
	p := &pass{
		layers: map[string]float64{
			"scenario.materialize_s": t1.Sub(t0).Seconds(),
			"scenario.expand_s":      time.Since(t1).Seconds(),
		},
		close: func() {},
	}
	var runner interface {
		campaign.Runner
		campaign.Trainer
	} = &campaign.Pool{Workers: poolWorkers, Store: store}
	if w.fleet {
		fl, err := startFleet(store, rec)
		if err != nil {
			return nil, err
		}
		runner, p.close = fl.runner, fl.stop
	}
	var run campaign.Runner = runner
	if rec != nil {
		run = &tracedRunner{inner: runner, rec: rec}
	}
	p.run = func(ctx context.Context) (passOutput, error) {
		var out passOutput
		var sets []*campaign.ResultSet
		h := sha256.New()
		for i, jobs := range batches {
			outs, err := run.Run(ctx, jobs, nil)
			if err != nil {
				return out, fmt.Errorf("batch %s: %w", specs[i].Name, err)
			}
			rs := campaign.Aggregate(specs[i].Name, outs)
			fmt.Fprintf(h, "%s %s\n", specs[i].Name, rs.Fingerprint)
			sets = append(sets, rs)
			out.outs = append(out.outs, outs...)
			out.jobs = append(out.jobs, jobs...)
		}
		h.Write([]byte(scenario.BuildReport(m.Name, sets...).Render()))
		out.digest = hex.EncodeToString(h.Sum(nil))
		out.cells = len(out.outs)
		for _, o := range out.outs {
			switch {
			case o == nil || o.Err != nil:
				out.failed++
			case o.CacheHit:
				out.hits++
			}
		}
		return out, nil
	}
	p.check = func(out passOutput) []string {
		if !w.fleet {
			return nil
		}
		return recheck(out)
	}
	return p, nil
}

// recheck re-executes an evenly spread sample of the fleet's cells
// in-process and compares canonical result bytes, so a sweep is checked
// for any seed, not only the seed with a committed reference.
func recheck(out passOutput) []string {
	var bad []string
	n := len(out.jobs)
	for i := 0; i < checkCells && n > 0; i++ {
		k := i * n / checkCells
		res, err := out.jobs[k].Execute()
		if err == nil {
			var data []byte
			if data, err = sim.EncodeResult(res); err == nil && string(data) != string(out.outs[k].Bytes) {
				err = fmt.Errorf("fleet result differs from in-process execution")
			}
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("recheck %s: %v", out.jobs[k].Label, err))
		}
	}
	return bad
}

// fleet is a loopback coordinator (WorkQueue + WorkHandler on 127.0.0.1)
// with fleetWorkers pull workers in this process, assembled as the
// `astro scenario sweep -workers N` cluster is.
type fleet struct {
	runner *campaign.RemoteRunner
	stop   func()
}

func startFleet(store campaign.ResultStore, rec *recorder) (*fleet, error) {
	q := campaign.NewWorkQueue(campaign.DefaultLeaseTTL)
	q.Store = store
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	var h http.Handler = campaign.WorkHandler(q, store)
	if rec != nil {
		h = tracedHandler(rec, h)
	}
	srv := &http.Server{Handler: http.StripPrefix("/work", h)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	stopSweep := q.StartSweeper(0)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < fleetWorkers; i++ {
		lane := fmt.Sprintf("w%d", i)
		wk := &campaign.Worker{
			Coordinator: "http://" + ln.Addr().String() + "/work",
			ID:          lane,
			Max:         fleetLease,
			Poll:        fleetPoll,
		}
		if rec != nil {
			wk.Client = &http.Client{Transport: &tracedTransport{base: http.DefaultTransport, rec: rec, lane: lane}}
			wk.OnProgress = func(p campaign.Progress) {
				end := time.Now()
				rec.add("worker.cell", lane, 0, end.Add(-time.Duration(p.WallS*float64(time.Second))), end)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wk.Run(ctx) // returns nil once ctx is cancelled
		}()
	}
	return &fleet{
		runner: &campaign.RemoteRunner{
			Queue:        q,
			Store:        store,
			Local:        campaign.Pool{Workers: poolWorkers, Store: store},
			ShipPrograms: true,
		},
		stop: func() {
			cancel()
			wg.Wait()
			stopSweep()
			shCtx, done := context.WithTimeout(context.Background(), 5*time.Second)
			defer done()
			_ = srv.Shutdown(shCtx)
			<-served
		},
	}, nil
}
