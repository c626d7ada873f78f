package sim

import (
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"astro/internal/hw"
	"astro/internal/ir"
)

// Memory-model edge cases. The address space is the globals plus
// MaxThreads stacks; every cell in it reads as zero until written, and an
// address outside it is a runtime error. These cases are driven through
// hand-built IR so the addresses are exact, and each runs on both tiers.
// The raw cases reach OpLoadI/OpStoreI through a constant register; the
// fused cases reach the same cells through GlobalAddr with bounds checking
// off, which the fast path compiles to its address+access superops.

const (
	memTestGlobals    = 8
	memTestMaxThreads = 4
	memTestStackCells = 64
	memTestCells      = memTestGlobals + memTestMaxThreads*memTestStackCells
)

// memModule builds a module with one 8-cell global array g, a function
// frame(v) that prints the four cells of a fresh frame array and then
// fills them with v, a function twice() that calls frame(7) then frame(9),
// and a main whose body build emits.
func memModule(t *testing.T, build func(b *ir.Builder)) *ir.Module {
	t.Helper()
	m := ir.NewModule("memedge")
	m.Globals = []ir.GlobalDecl{{Name: "g", Size: memTestGlobals, Elem: ir.TInt}}

	fb := ir.NewBuilder(m, "frame", []ir.Type{ir.TInt}, ir.TVoid)
	arr := fb.NewArray("a", 4, ir.TInt)
	for i := int64(0); i < 4; i++ {
		fb.CallB(ir.BPrintInt, memLoad(fb, localAddr(fb, arr, i)))
	}
	for i := int64(0); i < 4; i++ {
		memStore(fb, localAddr(fb, arr, i), 0)
	}
	fb.Ret(ir.NoReg)

	tb := ir.NewBuilder(m, "twice", nil, ir.TVoid)
	tb.Call(0, ir.NoReg, tb.ConstI(7))
	tb.Call(0, ir.NoReg, tb.ConstI(9))
	tb.Ret(ir.NoReg)

	b := ir.NewBuilder(m, "main", nil, ir.TVoid)
	build(b)
	b.Ret(ir.NoReg)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func localAddr(b *ir.Builder, arr int32, idx int64) int32 {
	r := b.NewReg(ir.TInt)
	b.Emit(ir.Instr{Op: ir.OpLocalAddr, Dst: r, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Sym: arr, Imm: idx})
	return r
}

// globalAddr is &g[idx]; g starts at cell 0, so it is cell idx.
func globalAddr(b *ir.Builder, idx int64) int32 {
	r := b.NewReg(ir.TInt)
	b.Emit(ir.Instr{Op: ir.OpGlobalAddr, Dst: r, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Sym: 0, Imm: idx})
	return r
}

func memLoad(b *ir.Builder, addr int32) int32 {
	r := b.NewReg(ir.TInt)
	b.Emit(ir.Instr{Op: ir.OpLoadI, Dst: r, A: addr, B: ir.NoReg, C: ir.NoReg, Sym: -1})
	return r
}

func memStore(b *ir.Builder, addr, v int32) {
	b.Emit(ir.Instr{Op: ir.OpStoreI, Dst: ir.NoReg, A: addr, B: v, C: ir.NoReg, Sym: -1})
}

// memMachine builds a machine for mod on one tier.
func memMachine(t *testing.T, mod *ir.Module, legacy bool) *Machine {
	t.Helper()
	m, err := New(mod, hw.OdroidXU4(), Options{
		Seed:          1,
		MaxThreads:    memTestMaxThreads,
		StackCells:    memTestStackCells,
		CaptureOutput: true,
		LegacyInterp:  legacy,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// runMem runs mod on one tier and returns its output and error.
func runMem(t *testing.T, mod *ir.Module, legacy bool) ([]string, error) {
	t.Helper()
	res, err := memMachine(t, mod, legacy).Run()
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}

func TestMemoryModelEdges(t *testing.T) {
	// A cell in the stack region of thread 2, which never exists.
	otherStack := int64(memTestGlobals + 2*memTestStackCells + 5)
	last := int64(memTestCells - 1)
	raw := func(b *ir.Builder, addr int64) int32 { return b.ConstI(addr) }

	ok := []struct {
		name  string
		build func(b *ir.Builder)
		want  string
	}{
		{"unwritten cells read zero", func(b *ir.Builder) {
			b.CallB(ir.BPrintInt, memLoad(b, raw(b, otherStack)))
			b.CallB(ir.BPrintInt, memLoad(b, raw(b, last)))
			b.CallB(ir.BPrintInt, memLoad(b, globalAddr(b, otherStack)))
			b.CallB(ir.BPrintInt, memLoad(b, globalAddr(b, last)))
		}, "0 0 0 0"},
		{"last cell round-trips", func(b *ir.Builder) {
			memStore(b, raw(b, last), b.ConstI(42))
			b.CallB(ir.BPrintInt, memLoad(b, raw(b, last)))
			memStore(b, globalAddr(b, last-1), b.ConstI(43))
			b.CallB(ir.BPrintInt, memLoad(b, globalAddr(b, last-1)))
			b.CallB(ir.BPrintInt, memLoad(b, raw(b, otherStack)))
		}, "42 43 0"},
		{"popped frame is re-zeroed", func(b *ir.Builder) {
			// main's own stack, then a spawned thread whose stack starts
			// out unwritten: both see a zeroed second frame.
			b.Call(1, ir.NoReg)
			b.Spawn(1)
			b.CallB(ir.BJoin)
		}, "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"},
	}
	for _, tc := range ok {
		t.Run(tc.name, func(t *testing.T) {
			mod := memModule(t, tc.build)
			for _, legacy := range []bool{false, true} {
				out, err := runMem(t, mod, legacy)
				if err != nil {
					t.Fatalf("legacy=%v: %v", legacy, err)
				}
				if got := strings.Join(out, " "); got != tc.want {
					t.Fatalf("legacy=%v: output %q, want %q", legacy, got, tc.want)
				}
			}
		})
	}

	t.Run("recycled buffer reads zero", func(t *testing.T) {
		// An earlier machine leaves non-zero values in cells the next one
		// reads without writing: two inside the prefix a machine starts
		// with (a global and a cell of main's stack), and one past it that
		// the next machine's store at stored exposes by growing the prefix
		// into the buffer's spare capacity. Both machines start with 72
		// backed cells; the writer's grow to 144, a buffer Execute would
		// pool.
		const inStack, exposed, stored = memTestGlobals + 5, 100, 120
		writer := memModule(t, func(b *ir.Builder) {
			for _, a := range []int64{3, inStack, exposed, stored} {
				memStore(b, raw(b, a), b.ConstI(0x5a5a))
			}
		})
		reader := memModule(t, func(b *ir.Builder) {
			b.CallB(ir.BPrintInt, memLoad(b, raw(b, 3)))
			b.CallB(ir.BPrintInt, memLoad(b, raw(b, inStack)))
			memStore(b, raw(b, stored), b.ConstI(5))
			b.CallB(ir.BPrintInt, memLoad(b, raw(b, exposed)))
			b.CallB(ir.BPrintInt, memLoad(b, raw(b, stored)))
		})
		// With the collector off, the pools keep what they are given.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		for _, legacy := range []bool{false, true} {
			w := memMachine(t, writer, legacy)
			if _, err := w.Run(); err != nil {
				t.Fatalf("legacy=%v: writer: %v", legacy, err)
			}
			dirty := w.mem
			for _, a := range []int64{3, inStack, exposed} {
				if dirty[a] != 0x5a5a {
					t.Fatalf("legacy=%v: writer left cell %d = %#x", legacy, a, dirty[a])
				}
			}
			if int64(cap(dirty)) > 2*w.firstMemLen() {
				t.Fatalf("legacy=%v: writer's buffer (capacity %d) is too large to be pooled", legacy, cap(dirty))
			}
			m := onRecycledMem(t, dirty, func() *Machine { return memMachine(t, reader, legacy) })
			if int64(len(m.mem)) > exposed {
				t.Fatalf("legacy=%v: reader starts with %d cells backed, want fewer than %d", legacy, len(m.mem), exposed)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("legacy=%v: reader: %v", legacy, err)
			}
			if got := strings.Join(res.Output, " "); got != "0 0 0 5" {
				t.Fatalf("legacy=%v: output %q, want %q", legacy, got, "0 0 0 5")
			}
			if unsafe.SliceData(m.mem) != unsafe.SliceData(dirty) {
				t.Fatalf("legacy=%v: the prefix left the recycled buffer instead of growing into it", legacy)
			}
		}
	})

	bad := []struct {
		name  string
		build func(b *ir.Builder)
		want  string
	}{
		{"load at end", func(b *ir.Builder) { memLoad(b, raw(b, memTestCells)) },
			"load from invalid address 264 in main (thread 0)"},
		{"store at end", func(b *ir.Builder) { memStore(b, raw(b, memTestCells), b.ConstI(1)) },
			"store to invalid address 264 in main (thread 0)"},
		{"load at -1", func(b *ir.Builder) { memLoad(b, raw(b, -1)) },
			"load from invalid address -1 in main (thread 0)"},
		{"store at -1", func(b *ir.Builder) { memStore(b, raw(b, -1), b.ConstI(1)) },
			"store to invalid address -1 in main (thread 0)"},
		{"fused load at end", func(b *ir.Builder) { memLoad(b, globalAddr(b, memTestCells)) },
			"load from invalid address 264 in main (thread 0)"},
		{"fused store at -1", func(b *ir.Builder) { memStore(b, globalAddr(b, -1), b.ConstI(1)) },
			"store to invalid address -1 in main (thread 0)"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			mod := memModule(t, tc.build)
			var errs [2]string
			for i, legacy := range []bool{false, true} {
				_, err := runMem(t, mod, legacy)
				if err == nil {
					t.Fatalf("legacy=%v: no error", legacy)
				}
				// fail prefixes the virtual time: "sim: t=<s>s: <message>".
				if !strings.HasPrefix(err.Error(), "sim: t=") || !strings.HasSuffix(err.Error(), "s: "+tc.want) {
					t.Fatalf("legacy=%v: error %q, want message %q", legacy, err, tc.want)
				}
				errs[i] = err.Error()
			}
			if errs[0] != errs[1] {
				t.Fatalf("tiers disagree: fast %q, legacy %q", errs[0], errs[1])
			}
		})
	}
}

// onRecycledMem builds a machine with build and retries until its memory
// buffer is dirty, pooled just before as the only buffer on offer. sync.Pool
// promises nothing (the race detector drops a quarter of all Puts), so the
// test checks by identity which buffer the machine took.
func onRecycledMem(t *testing.T, dirty []uint64, build func() *Machine) *Machine {
	t.Helper()
	pool := memPools.pool(memTestGlobals + memTestStackCells)
	for try := 0; try < 50; try++ {
		for pool.Get() != nil {
		}
		pool.Put(&dirty)
		if m := build(); unsafe.SliceData(m.mem) == unsafe.SliceData(dirty) {
			return m
		}
	}
	t.Fatal("no machine took the pooled buffer in 50 tries")
	return nil
}
