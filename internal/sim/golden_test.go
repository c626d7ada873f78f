package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astro/internal/hw"
	"astro/internal/workloads"
)

// goldenPlatforms are the machines the result golden runs on: the paper's
// board and two zoo machines whose L2 capacities differ from it and from
// each other (1024 KB on both clusters; 512/2048 KB on the largest zoo
// shape), so a change to the cache or memory model shows up under more
// than one geometry and core count.
var goldenPlatforms = []string{
	"odroid-xu4",
	"zoo:2L2B:l1400@0.50:b2000@0.50",
	"zoo:16L16B:l1400@0.00:b2000@1.00",
}

// TestResultGolden pins the canonical result bytes (EncodeResult) of the
// Fig. 1 workloads on both execution tiers, plus one actuated run that
// switches configuration at every checkpoint (L1 invalidation, active-core
// churn, migrations). The differential tests only prove the tiers agree
// with each other; both share the memory and cache models, so this digest
// is what catches a change to either. Regenerate with
// ASTRO_UPDATE_GOLDEN=1 only for an intentional change to simulated
// behaviour, and call it out as a result-bytes break.
func TestResultGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range []string{"freqmine", "streamcluster"} {
		spec, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s not registered", name)
		}
		mod, err := spec.Compile()
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		for _, pname := range goldenPlatforms {
			plat, err := hw.ByName(pname)
			if err != nil {
				t.Fatal(err)
			}
			for _, legacy := range []bool{false, true} {
				opts := Options{
					Seed:          13,
					Args:          spec.SmallArgs(),
					CheckpointS:   400e-6,
					QuantumS:      50e-6,
					TickS:         200e-6,
					CaptureOutput: true,
					BoundsCheck:   true,
					LegacyInterp:  legacy,
				}
				tier := "fast"
				if legacy {
					tier = "legacy"
				}
				writeGoldenLine(&b, tier, name, pname, runEncoded(t, mod, plat, opts))
				if pname == "odroid-xu4" {
					opts.Actuator = &cyclingActuator{plat: plat}
					writeGoldenLine(&b, tier+"/actuated", name, pname, runEncoded(t, mod, plat, opts))
				}
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "result_golden.txt")
	if os.Getenv("ASTRO_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with ASTRO_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("result bytes drifted from %s: simulated behaviour changed.\ngot:\n%swant:\n%s",
			path, got, want)
	}
}

func writeGoldenLine(b *strings.Builder, tier, workload, plat string, enc []byte) {
	sum := sha256.Sum256(enc)
	fmt.Fprintf(b, "%s %s %s %s\n", tier, workload, plat, hex.EncodeToString(sum[:]))
}
