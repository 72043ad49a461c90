package vm

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/ir"
)

// TestWrappedPointerFaults: a pointer below zero wraps to near 2^64, so
// addr+size overflows. Every access path must fault, not panic.
func TestWrappedPointerFaults(t *testing.T) {
	cases := map[string]string{
		"load": `int main() {
			int* p;
			p = 0;
			p = p - 1;
			return *p;
		}`,
		"store": `int main() {
			int* p;
			p = 0;
			p = p - 1;
			*p = 7;
			return 0;
		}`,
		"strcpy": `int main() {
			char* p;
			p = 0;
			strcpy(p - 3, "hello");
			return 0;
		}`,
		"memset": `int main() {
			char* p;
			p = 0;
			memset(p - 3, 'x', 8);
			return 0;
		}`,
		"read_line": `int main() {
			char* p;
			p = 0;
			read_line(p - 3);
			return 0;
		}`,
	}
	for name, src := range cases {
		res := run(t, src, "hello")
		if res.Status != Faulted || !(errors.Is(res.Fault, ErrOOB) || errors.Is(res.Fault, ErrNull)) {
			t.Errorf("%s: status %v fault %v, want an OOB or null fault", name, res.Status, res.Fault)
		}
	}

	v := New(compile(t, `int main() { return 0; }`), DefaultConfig, nil)
	defer v.Release()
	if err := v.Poke(^uint64(0)-3, 1, 8); !errors.Is(err, ErrOOB) {
		t.Errorf("wrapped poke: %v", err)
	}
	if _, err := v.Peek(^uint64(0)-3, 8); !errors.Is(err, ErrOOB) {
		t.Errorf("wrapped peek: %v", err)
	}
}

// resetProg touches statics, strings, input, output, branches and a
// nested frame, so a rerun exercises every piece of state Reset rewinds.
// The pads put the targets of strcpy, memset and read_line on pages of
// their own, so each write path must mark its page itself; the last pad
// keeps the string constants off the globals' pages.
const resetProg = `
	int hits = 3;
	char pad1[8192];
	char viaStrcpy[16];
	char pad2[8192];
	char viaMemset[16];
	char pad3[8192];
	char line[64];
	char pad4[8192];
	int count(char* s) {
		int n;
		n = 0;
		while (s[n] != 0) { n = n + 1; }
		return n;
	}
	int main() {
		int total;
		total = hits;
		strcpy(viaStrcpy, "hi");
		memset(viaMemset, 'z', 15);
		while (read_line(line) >= 0) {
			if (strcmp(line, "boom") == 0) {
				int* p;
				p = 0;
				p = p + 999999999;
				return *p;
			}
			total = total + count(line);
			print_str(line);
		}
		print_int(total);
		return total;
	}`

// pristine returns the memory image of a never-used VM for prog: a
// freshly allocated arena (bypassing the pool) with only the statics
// initialised.
func pristine(prog *ir.Program) []byte {
	v := &VM{prog: prog, layout: NewLayout(prog, DefaultConfig.GlobalBase, DefaultConfig.StackBase)}
	v.ar = newArena(DefaultConfig.MemSize)
	v.mem = v.ar.mem
	v.initStatics()
	return v.mem
}

func TestResetRestoresPristineVM(t *testing.T) {
	p := compile(t, resetProg)
	want := pristine(p)
	for _, input := range [][]string{{"abc", "de"}, {"x", "boom"}} {
		v := New(p, DefaultConfig, []string{"first", "run"})
		v.Run()
		// The program's own writes (stores, strcpy, memset, read_line)
		// must have marked every page they dirtied.
		v.Reset(input)
		if !bytes.Equal(v.mem, want) {
			t.Fatalf("%v: memory after Reset differs from a fresh VM's", input)
		}
		got := v.Run()
		fresh := New(p, DefaultConfig, input).Run()
		if got.Status != fresh.Status || got.ExitCode != fresh.ExitCode || got.Steps != fresh.Steps ||
			!reflect.DeepEqual(got.Output, fresh.Output) || !reflect.DeepEqual(got.Branches, fresh.Branches) {
			t.Errorf("%v: rerun %+v, fresh run %+v", input, got, fresh)
		}
		if (got.Fault == nil) != (fresh.Fault == nil) || (got.Fault != nil && got.Fault.Error() != fresh.Fault.Error()) {
			t.Errorf("%v: rerun fault %v, fresh fault %v", input, got.Fault, fresh.Fault)
		}
		if len(got.Branches) == 0 {
			t.Errorf("%v: the program should branch", input)
		}

		// Dirty every page, including the gap between the statics and
		// the stack and the last page.
		for addr := uint64(0); addr < DefaultConfig.MemSize; addr += 1 << pageShift {
			if err := v.Poke(addr+8, -1, 8); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Poke(DefaultConfig.MemSize-8, -1, 8); err != nil {
			t.Fatal(err)
		}
		v.Reset(input)
		if !bytes.Equal(v.mem, want) {
			t.Fatalf("%v: memory after poking every page and Reset differs from a fresh VM's", input)
		}
		v.Release()
	}
}

func TestResetKeepsPreviousResult(t *testing.T) {
	p := compile(t, resetProg)
	v := New(p, DefaultConfig, []string{"abc"})
	defer v.Release()
	first := v.Run()
	branches := append([]BranchEvent(nil), first.Branches...)
	output := append([]string(nil), first.Output...)
	v.Reset([]string{"defgh", "ij"})
	v.Run()
	if !reflect.DeepEqual(first.Branches, branches) || !reflect.DeepEqual(first.Output, output) {
		t.Fatal("a rerun overwrote the previous Result's branch trace or output")
	}
}

func TestReleaseWipesArena(t *testing.T) {
	p := compile(t, resetProg)
	pool := arenaPool(DefaultConfig.MemSize)
	for _, pokeAll := range []bool{false, true} {
		v := New(p, DefaultConfig, []string{"abc"})
		v.Run()
		if pokeAll {
			for addr := uint64(0); addr < DefaultConfig.MemSize; addr += 1 << pageShift {
				if err := v.Poke(addr, 0x5a, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		v.Release()
		v.Release() // a second Release is a no-op
		if v.ar != nil || v.mem != nil {
			t.Fatal("Release left the VM holding its memory")
		}
		// The pool may have dropped the arena; whatever it hands back
		// must be fully wiped.
		got := pool.Get().(*arena)
		for i, b := range got.mem {
			if b != 0 {
				t.Fatalf("poked=%v: arena from pool has byte %#x at %#x", pokeAll, b, i)
			}
		}
		for w, bits := range got.dirty {
			if bits != 0 {
				t.Fatalf("poked=%v: arena from pool has dirty word %d = %#x", pokeAll, w, bits)
			}
		}
		pool.Put(got)
	}
	// New on top of a recycled arena starts from the pristine image.
	nv := New(p, DefaultConfig, nil)
	defer nv.Release()
	if !bytes.Equal(nv.mem, pristine(p)) {
		t.Fatal("New on a recycled arena differs from a fresh VM's memory")
	}
}
