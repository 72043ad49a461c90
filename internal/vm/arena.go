package vm

import (
	"math/bits"
	"sync"
)

// pageShift sets the dirty-tracking granule: one bit per 4 KiB page.
const pageShift = 12

// arena is a VM's data memory plus a dirty-page bitmap. A clear bit
// means its page is all zero: every path that may store a nonzero byte
// (writeRaw, initStatics, copyOut, memset) marks the pages it touches,
// so wiping the arena zeroes only the pages a run wrote. Frame zeroing
// in pushFrame stores only zeros and needs no mark.
type arena struct {
	mem   []byte
	dirty []uint64 // bit p set: page p may hold a nonzero byte
}

func newArena(size uint64) *arena {
	pages := (size + 1<<pageShift - 1) >> pageShift
	return &arena{
		mem:   make([]byte, size),
		dirty: make([]uint64, (pages+63)/64),
	}
}

// mark records a write of n bytes at addr (n > 0, bounds already
// checked).
func (a *arena) mark(addr, n uint64) {
	for p, last := addr>>pageShift, (addr+n-1)>>pageShift; p <= last; p++ {
		a.dirty[p/64] |= 1 << (p % 64)
	}
}

// wipe zeroes every dirty page and clears the bitmap.
func (a *arena) wipe() {
	for w, word := range a.dirty {
		for ; word != 0; word &= word - 1 {
			lo := uint64(w*64+bits.TrailingZeros64(word)) << pageShift
			clear(a.mem[lo:min(lo+1<<pageShift, uint64(len(a.mem)))])
		}
		a.dirty[w] = 0
	}
}

// arenaPools holds released arenas, one sync.Pool per memory size, so a
// run of short-lived VMs (an attack campaign) recycles one wiped arena
// instead of allocating and zeroing a fresh one per VM.
var (
	arenaMu    sync.Mutex
	arenaPools = map[uint64]*sync.Pool{}
)

func arenaPool(size uint64) *sync.Pool {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	p := arenaPools[size]
	if p == nil {
		p = &sync.Pool{New: func() any { return newArena(size) }}
		arenaPools[size] = p
	}
	return p
}

// Reset rewinds the VM to the state New(prog, cfg, input) would give,
// keeping its memory, layout and read-only map: it zeroes only the
// pages the last run dirtied and re-initialises the statics. The branch
// trace and output start as fresh slices, since a previous Result
// aliases the old ones and stays valid; the trace is presized to the
// last run's length, which a rerun of the same session mostly repeats.
// Hooks are cleared, so re-attach observers after Reset. The frame
// slots and their register files stay for reuse.
func (v *VM) Reset(input []string) {
	v.ar.wipe()
	v.initStatics()
	v.sp = v.cfg.StackBase
	v.frames = v.frames[:0]
	v.input, v.inPos = input, 0
	v.output, v.outBuf = nil, v.outBuf[:0]
	v.steps = 0
	last := len(v.branches)
	v.branches = nil
	if last > 0 {
		v.branches = make([]BranchEvent, 0, last)
	}
	v.done, v.status, v.exit, v.fault = false, Exited, 0, nil
	v.Hooks = Hooks{}
}

// Release wipes the VM's memory and hands it to the arena pool, where a
// later New of the same MemSize picks it up. The pool owns the memory
// from then on: the VM must not be run, stepped, peeked or poked after
// Release. Results already returned stay valid. Releasing twice is a
// no-op.
func (v *VM) Release() {
	if v.ar == nil {
		return
	}
	v.ar.wipe()
	arenaPool(uint64(len(v.ar.mem))).Put(v.ar)
	v.ar, v.mem = nil, nil
}
