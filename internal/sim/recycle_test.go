package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"astro/internal/hw"
	"astro/internal/ir"
	"astro/internal/workloads"
)

// recycleCell is one simulation of the identity test. Its platforms are
// the result golden's three machines: 2L2B's L2s are 1024 KB, and 16L16B
// has the Odroid's 512 and 2048 KB L2s but 32 L1s rather than 8, so the
// pools hand buffers between machines of different shapes.
type recycleCell struct {
	workload, plat string
	seed           int64
	actuated       bool // switch configuration at every checkpoint
	legacy         bool
}

func (c recycleCell) String() string {
	return fmt.Sprintf("%s/%s/seed%d/actuated=%v/legacy=%v", c.workload, c.plat, c.seed, c.actuated, c.legacy)
}

// options returns the cell's options on plat. Each call makes a fresh
// actuator, which holds per-run state.
func (c recycleCell) options(plat *hw.Platform) Options {
	spec, _ := workloads.ByName(c.workload)
	opts := Options{
		Seed:          c.seed,
		Args:          spec.SmallArgs(),
		CheckpointS:   400e-6,
		QuantumS:      50e-6,
		TickS:         200e-6,
		CaptureOutput: true,
		BoundsCheck:   true,
		LegacyInterp:  c.legacy,
	}
	if c.actuated {
		opts.Actuator = &cyclingActuator{plat: plat}
	}
	return opts
}

// TestExecuteRecycledIdentity runs a mix of cells through Execute on 8
// goroutines, so every machine after the first few is built from buffers
// another machine, of another shape, ran on. Every result must be
// byte-identical to that of a fresh serial New and Run.
func TestExecuteRecycledIdentity(t *testing.T) {
	mods := map[string]*ir.Module{}
	for _, name := range []string{"freqmine", "streamcluster"} {
		spec, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s not registered", name)
		}
		mod, err := spec.Compile()
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		mods[name] = mod
	}
	var cells []recycleCell
	for _, plat := range goldenPlatforms {
		for _, w := range []string{"freqmine", "streamcluster"} {
			for _, seed := range []int64{1, 2} {
				cells = append(cells, recycleCell{workload: w, plat: plat, seed: seed})
			}
		}
	}
	cells = append(cells,
		recycleCell{workload: "freqmine", plat: "odroid-xu4", seed: 3, actuated: true},
		recycleCell{workload: "streamcluster", plat: goldenPlatforms[2], seed: 3, legacy: true},
	)

	plats := make([]*hw.Platform, len(cells))
	want := make([][]byte, len(cells))
	for i, c := range cells {
		plat, err := hw.ByName(c.plat)
		if err != nil {
			t.Fatal(err)
		}
		plats[i] = plat
		want[i] = runEncoded(t, mods[c.workload], plat, c.options(plat))
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(cells))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cells {
				// Each goroutine walks the cells from its own offset, so
				// neighbouring machines differ in shape.
				i := (g*len(cells)/goroutines + k) % len(cells)
				c := cells[i]
				res, err := Execute(mods[c.workload], plats[i], c.options(plats[i]), nil)
				if err != nil {
					errs <- fmt.Errorf("%v: %v", c, err)
					continue
				}
				got, err := EncodeResult(res)
				if err != nil {
					errs <- fmt.Errorf("%v: encode: %v", c, err)
					continue
				}
				if !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("%v: result bytes differ from a fresh machine's", c)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// executeBytesBudget caps what one warmed Execute of matrixmul on the
// largest zoo shape allocates, construction and run together. Building
// that machine from new buffers costs about 0.68 MB (BenchmarkNewMachine).
// matrixmul is single-threaded, so its prefix never grows past twice its
// first length and release pools every buffer it used; a multi-threaded
// program's grown prefix is left to the collector, and each run pays for
// its growth (freqmine: about 1.4 MB per Execute). A warmed matrixmul
// measured 17 KB (Go 1.24, amd64).
const executeBytesBudget = 64 << 10

// TestExecuteBytesBudget pins the bytes a warmed Execute allocates. The
// collector is off while it measures, because a collection empties the
// pools and the next machine then builds from new buffers. Under the race
// detector sync.Pool drops a quarter of all Puts on purpose, so there the
// number means nothing and the test is skipped.
func TestExecuteBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	spec, ok := workloads.ByName("matrixmul")
	if !ok {
		t.Fatal("matrixmul not registered")
	}
	mod, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	plat, err := hw.ByName("zoo:16L16B:l1400@0.00:b2000@1.00")
	if err != nil {
		t.Fatal(err)
	}
	opts, prog := Options{Seed: 1, Args: spec.SmallArgs()}, CompileModule(mod)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	execute := func() {
		if _, err := Execute(mod, plat, opts, prog); err != nil {
			t.Fatal(err)
		}
	}
	execute()
	execute()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		execute()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per warmed Execute", perRun)
	if perRun > executeBytesBudget {
		t.Fatalf("a warmed Execute allocates %d bytes, budget %d", perRun, executeBytesBudget)
	}
}
