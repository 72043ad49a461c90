// Package tables encodes the per-function analysis results of
// internal/core into the runtime's bit-level table images: the Branch
// Status Vector (BSV, 2 bits per slot, maintained at runtime), the
// Branch Checking Vector (BCV, 1 bit per slot) and the Branch Action
// Table (BAT, a per-slot, per-direction linked list of actions), all
// indexed by the collision-free hash of internal/hashfn.
//
// The bit sizes reported here regenerate the paper's Figure 8; the
// binary Marshal/Unmarshal round trip models attaching the tables to
// the program binary for the loader to map into reserved memory.
package tables

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/hashfn"
)

// Status is a BSV entry: the expected direction of a branch.
type Status uint8

// Branch statuses. Unknown matches any direction.
const (
	Unknown Status = iota
	Taken
	NotTaken
)

// String renders the status as the paper's UN/T/NT shorthand.
func (s Status) String() string {
	switch s {
	case Unknown:
		return "UN"
	case Taken:
		return "T"
	case NotTaken:
		return "NT"
	}
	return "?"
}

// matchBits is the Matches truth table: bit (s<<1 | taken) holds the
// verdict for status s. Unknown (bits 0,1) matches both directions,
// Taken (bit 3) only taken, NotTaken (bit 4) only not-taken.
const matchBits = 0b011011

// Matches reports whether an observed direction is compatible with the
// expected status. It is a branch-free truth-table probe — it sits
// inside the per-branch verification kernel, where a data-dependent
// status switch would mispredict on exactly the irregular histories
// the checker exists to examine. Statuses are always one of the three
// defined constants (nothing in this package or the runtime produces
// others).
func (s Status) Matches(taken bool) bool {
	t := uint(0)
	if taken {
		t = 1
	}
	return matchBits>>(uint(s)<<1|t)&1 != 0
}

// MatchFail is the branch-free complement of Matches for the batched
// verification kernel: it returns 1 when the status is incompatible
// with the direction bit t (1 = taken), 0 otherwise. The kernel ANDs
// it with the slot's checked bit, so the only branch left on the
// verify edge is the rare alarm dispatch.
func (s Status) MatchFail(t uint64) uint64 {
	return ^uint64(matchBits) >> (uint64(s)<<1 | t) & 1
}

// StatusFor converts a direction to the corresponding status.
func StatusFor(taken bool) Status {
	if taken {
		return Taken
	}
	return NotTaken
}

// BATEntry is one node of a BAT action list.
type BATEntry struct {
	Target int         // slot index of the branch to update
	Act    core.Action // SET_T / SET_NT / SET_UN
	Next   int32       // next entry index, -1 terminates
}

// FuncImage is the encoded table set of one function (the compiler's
// half of §5.4's function information table). It is immutable after
// EncodeFunc/Unmarshal: the runtime (internal/ipds) and any number of
// concurrent readers share it without synchronisation; per-run mutable
// state (the BSV) lives in the runtime's activation, never here.
type FuncImage struct {
	Name     string
	Base     uint64 // function code base address
	Hash     hashfn.Params
	NumSlots int

	// BranchPCs lists the function's conditional-branch PCs (sorted).
	// The slot hash is masked, so any PC maps onto *some* slot; this
	// list lets a strict runtime reject PCs that are not actually
	// branches of the function instead of silently aliasing them onto
	// another branch's slot. ValidPC binary-searches this slice
	// directly — there is no side map, so a FuncImage costs no pointer
	// chasing beyond the slice itself on the verification hot path.
	BranchPCs []uint64
	// hasPCs distinguishes an image encoded with (possibly zero)
	// branch-PC metadata from a hand-built fixture without any: only
	// the latter accepts every PC.
	hasPCs bool

	// BCV is the checking vector, one bit per slot.
	BCV []uint64

	// BATHeads holds, per slot and direction (0 taken, 1 not-taken),
	// the index of the first BAT entry, or -1.
	BATHeads [][2]int32
	Entries  []BATEntry

	// Sizes in bits of the three tables (Figure 8).
	BSVBits int
	BCVBits int
	BATBits int

	// baked is the load-time slot-record form of BCV+BAT the runtime
	// kernel probes (see baked.go). Derived state only: it never
	// marshals, and Bake builds it deterministically from the fields
	// above before the image is shared.
	baked *Baked
}

// Checked reports whether the slot is marked in the BCV.
func (fi *FuncImage) Checked(slot int) bool {
	return fi.BCV[slot/64]&(1<<(slot%64)) != 0
}

// Slot maps a branch PC to its table slot.
func (fi *FuncImage) Slot(pc uint64) int { return fi.Hash.Slot(fi.Base, pc) }

// ValidPC reports whether pc is one of the function's known branch PCs
// by binary search over the sorted BranchPCs slice (no map, no
// allocation). Images without branch-PC metadata (hand-built test
// fixtures) accept every PC, preserving the paper's tagless-table
// behaviour.
func (fi *FuncImage) ValidPC(pc uint64) bool {
	if !fi.hasPCs {
		return true
	}
	lo, hi := 0, len(fi.BranchPCs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fi.BranchPCs[mid] < pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(fi.BranchPCs) && fi.BranchPCs[lo] == pc
}

// setBranchPCs installs the sorted branch-PC list ValidPC searches.
func (fi *FuncImage) setBranchPCs(pcs []uint64) {
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	fi.BranchPCs = pcs
	fi.hasPCs = true
}

// BATIter is an allocation-free cursor over one (slot, direction) BAT
// action list. The zero value is exhausted; obtain one with
// FuncImage.ActionList. It is a value type: copying it forks the
// cursor, and no call on it allocates or escapes to the heap — this is
// what lets the runtime's branch hot path walk update lists without a
// func value.
type BATIter struct {
	entries []BATEntry
	idx     int32
}

// Next returns the next action entry, or ok=false when the list is
// exhausted.
func (it *BATIter) Next() (e BATEntry, ok bool) {
	if it.idx < 0 {
		return BATEntry{}, false
	}
	e = it.entries[it.idx]
	it.idx = e.Next
	return e, true
}

// ActionList returns a cursor over the BAT list for (slot, taken).
func (fi *FuncImage) ActionList(slot int, taken bool) BATIter {
	dir := 0
	if !taken {
		dir = 1
	}
	return BATIter{entries: fi.Entries, idx: fi.BATHeads[slot][dir]}
}

// Actions iterates the BAT list for (slot, taken), reporting the number
// of entries walked (the runtime's per-update table accesses). The
// runtime itself uses ActionList; this closure form remains for tests
// and diagnostics.
func (fi *FuncImage) Actions(slot int, taken bool, yield func(BATEntry)) int {
	it := fi.ActionList(slot, taken)
	n := 0
	for e, ok := it.Next(); ok; e, ok = it.Next() {
		yield(e)
		n++
	}
	return n
}

// Image is the whole-program table set plus the function information
// table the compiler hands to the runtime (§5.4).
//
// Function lookup by entry address goes through FuncAt, which binary
// searches a dense base-sorted index (two parallel slices) instead of
// a map: the index is one cache-friendly []uint64 probe on the
// runtime's EnterFunc path, and the whole structure is immutable after
// Index, so any number of concurrent machines may share it.
type Image struct {
	Funcs []*FuncImage

	// bases/byBase form the dense sorted index FuncAt searches:
	// bases[i] is the entry address of byBase[i], ascending.
	bases  []uint64
	byBase []*FuncImage
}

// Index (re)builds the base-address lookup index over Funcs and bakes
// every function's slot-record form (see baked.go), so any image the
// runtime sees arrives ready for the fused-probe kernel. Encode,
// Unmarshal and the pipeline call it before an image is shared;
// hand-assembled images (tests, tools) must call it before FuncAt —
// concurrently sharing an image while calling Index is a data race.
func (im *Image) Index() {
	for _, fi := range im.Funcs {
		fi.Bake()
	}
	im.bases = make([]uint64, 0, len(im.Funcs))
	im.byBase = make([]*FuncImage, 0, len(im.Funcs))
	fns := make([]*FuncImage, len(im.Funcs))
	copy(fns, im.Funcs)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Base < fns[j].Base })
	for _, fi := range fns {
		im.bases = append(im.bases, fi.Base)
		im.byBase = append(im.byBase, fi)
	}
}

// FuncAt locates a function image from its entry address (nil when the
// address belongs to no table-carrying function, e.g. library code).
// It allocates nothing and is safe for concurrent use once the image
// is indexed.
func (im *Image) FuncAt(base uint64) *FuncImage {
	bases := im.bases
	lo, hi := 0, len(bases)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bases[mid] < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(bases) && bases[lo] == base {
		return im.byBase[lo]
	}
	return nil
}

// FuncByName returns the image for the named function, or nil.
func (im *Image) FuncByName(name string) *FuncImage {
	for _, fi := range im.Funcs {
		if fi.Name == name {
			return fi
		}
	}
	return nil
}

// Encode builds table images for every function in the analysis result.
func Encode(res *core.Result) (*Image, error) {
	im := &Image{}
	for _, fn := range res.Prog.Funcs {
		fi, err := EncodeFunc(res.Tables[fn])
		if err != nil {
			return nil, fmt.Errorf("tables: %s: %w", fn.Name, err)
		}
		im.Funcs = append(im.Funcs, fi)
	}
	im.Index()
	return im, nil
}

// EncodeFunc encodes one function's analysis result: it searches for
// the collision-free hash parameterisation (§5.2) and lays out the
// BCV bits and BAT action lists. EncodeFunc only reads ft, so
// concurrent calls on distinct FuncTables are safe — this is the unit
// of work the parallel pipeline fans out per function. The result is
// deterministic: identical FuncTables yield byte-identical MarshalFunc
// output.
func EncodeFunc(ft *core.FuncTables) (*FuncImage, error) {
	fn := ft.Fn
	pcs := make([]uint64, 0, len(ft.Branches))
	for _, br := range ft.Branches {
		pcs = append(pcs, br.PC)
	}
	params, err := hashfn.Find(fn.Base, pcs, 0)
	if err != nil {
		return nil, err
	}
	n := params.Slots()
	fi := &FuncImage{
		Name:     fn.Name,
		Base:     fn.Base,
		Hash:     params,
		NumSlots: n,
		BCV:      make([]uint64, (n+63)/64),
		BATHeads: make([][2]int32, n),
	}
	for i := range fi.BATHeads {
		fi.BATHeads[i] = [2]int32{-1, -1}
	}
	fi.setBranchPCs(pcs)
	for br := range ft.Checked {
		s := fi.Slot(br.PC)
		fi.BCV[s/64] |= 1 << (s % 64)
	}

	// Deterministic event order: by branch PC, taken before not-taken.
	evs := make([]core.Event, 0, len(ft.Actions))
	for ev := range ft.Actions {
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Br.PC != evs[j].Br.PC {
			return evs[i].Br.PC < evs[j].Br.PC
		}
		return evs[i].Dir < evs[j].Dir
	})
	for _, ev := range evs {
		slot := fi.Slot(ev.Br.PC)
		dir := 0
		if ev.Dir == cfg.NotTaken {
			dir = 1
		}
		// Build the chain in update order.
		prev := int32(-1)
		for i := len(ft.Actions[ev]) - 1; i >= 0; i-- {
			u := ft.Actions[ev][i]
			fi.Entries = append(fi.Entries, BATEntry{
				Target: fi.Slot(u.Target.PC),
				Act:    u.Act,
				Next:   prev,
			})
			prev = int32(len(fi.Entries) - 1)
		}
		fi.BATHeads[slot][dir] = prev
	}

	fi.BSVBits = 2 * n
	fi.BCVBits = n
	ptrBits := log2ceil(len(fi.Entries) + 1)
	slotBits := log2ceil(n)
	fi.BATBits = 2*n*ptrBits + len(fi.Entries)*(slotBits+2+ptrBits)
	return fi, nil
}

func log2ceil(n int) int {
	l := 0
	for (1 << l) < n {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// Stats aggregates table sizes across an image (Figure 8 inputs).
type Stats struct {
	Funcs        int
	AvgBSVBits   float64
	AvgBCVBits   float64
	AvgBATBits   float64
	TotalEntries int
}

// Sizes computes average per-function table sizes.
func (im *Image) Sizes() Stats {
	var s Stats
	if len(im.Funcs) == 0 {
		return s
	}
	for _, fi := range im.Funcs {
		s.AvgBSVBits += float64(fi.BSVBits)
		s.AvgBCVBits += float64(fi.BCVBits)
		s.AvgBATBits += float64(fi.BATBits)
		s.TotalEntries += len(fi.Entries)
	}
	n := float64(len(im.Funcs))
	s.Funcs = len(im.Funcs)
	s.AvgBSVBits /= n
	s.AvgBCVBits /= n
	s.AvgBATBits /= n
	return s
}

const magic = uint32(0x49504453) // "IPDS"

// Marshal serialises the image to the binary form attached to program
// binaries.
func (im *Image) Marshal() []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(im.Funcs)))
	for _, fi := range im.Funcs {
		buf = appendFunc(buf, fi)
	}
	return buf
}

// Hash is the image's content address: the SHA-256 of its marshalled
// bytes. Because Marshal is deterministic (same source + options ⇒
// byte-identical image), the hash identifies a program's table set
// across processes and machines — it is what a wire.Hello carries and
// what the serving daemon resolves images by.
func (im *Image) Hash() [sha256.Size]byte {
	return sha256.Sum256(im.Marshal())
}

// appendFunc appends one function's serialised record to buf.
func appendFunc(buf []byte, fi *FuncImage) []byte {
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }

	u32(uint32(len(fi.Name)))
	buf = append(buf, fi.Name...)
	u64(fi.Base)
	buf = append(buf, fi.Hash.S1, fi.Hash.S2, fi.Hash.SizeLog2, 0)
	u32(uint32(len(fi.BranchPCs)))
	for _, pc := range fi.BranchPCs {
		u64(pc)
	}
	u32(uint32(len(fi.BCV)))
	for _, w := range fi.BCV {
		u64(w)
	}
	u32(uint32(len(fi.Entries)))
	for _, e := range fi.Entries {
		u32(uint32(e.Target))
		u32(uint32(e.Act))
		u32(uint32(e.Next))
	}
	for _, h := range fi.BATHeads {
		u32(uint32(h[0]))
		u32(uint32(h[1]))
	}
	return buf
}

// MarshalFunc serialises a single function image using the same record
// layout Marshal embeds per function. The per-function table cache
// (internal/tcache) stores these records as its blob payload.
func MarshalFunc(fi *FuncImage) []byte {
	return appendFunc(nil, fi)
}

// UnmarshalFunc reads a single function record produced by MarshalFunc,
// returning the image and the number of bytes consumed.
func UnmarshalFunc(data []byte) (*FuncImage, int, error) {
	fi, off, err := readFunc(data, 0)
	if err != nil {
		return nil, 0, err
	}
	return fi, off, nil
}

// Unmarshal reads a serialised image.
func Unmarshal(data []byte) (*Image, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("tables: truncated image at header")
	}
	if binary.LittleEndian.Uint32(data) != magic {
		return nil, fmt.Errorf("tables: bad magic")
	}
	nf := binary.LittleEndian.Uint32(data[4:])
	off := 8
	im := &Image{}
	for i := uint32(0); i < nf; i++ {
		fi, next, err := readFunc(data, off)
		if err != nil {
			return nil, err
		}
		off = next
		im.Funcs = append(im.Funcs, fi)
	}
	im.Index()
	return im, nil
}

// maxSizeLog2 bounds a decoded hash space: hashfn.Find never searches
// past 2^30 slots, and Bake packs slot indices into 30 bits.
const maxSizeLog2 = 30

// readFunc decodes one function record starting at off, returning the
// image and the offset just past the record. Images arrive from disk
// caches and registry peers, whose checks only tie bytes to their
// hash, so every count is checked against the remaining input before
// anything is allocated, and the BAT lists are validated (see
// checkLists) before Bake or the runtime walks them.
func readFunc(data []byte, off int) (*FuncImage, int, error) {
	fail := func(what string) error { return fmt.Errorf("tables: truncated image at %s", what) }
	// fits reports whether n records of size bytes remain in the input.
	fits := func(n uint64, size int) bool { return n <= uint64(len(data)-off)/uint64(size) }
	u32 := func() (uint32, bool) {
		if off+4 > len(data) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if off+8 > len(data) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v, true
	}

	nameLen, ok := u32()
	if !ok || off+int(nameLen) > len(data) {
		return nil, 0, fail("name")
	}
	name := string(data[off : off+int(nameLen)])
	off += int(nameLen)
	base, ok := u64()
	if !ok {
		return nil, 0, fail("base")
	}
	if off+4 > len(data) {
		return nil, 0, fail("hash params")
	}
	params := hashfn.Params{S1: data[off], S2: data[off+1], SizeLog2: data[off+2]}
	off += 4
	if params.SizeLog2 > maxSizeLog2 {
		return nil, 0, fmt.Errorf("tables: %s: hash space 2^%d exceeds 2^%d slots", name, params.SizeLog2, maxSizeLog2)
	}
	nPCs, ok := u32()
	if !ok || !fits(uint64(nPCs), 8) {
		return nil, 0, fail("branch pc count")
	}
	pcs := make([]uint64, 0, nPCs)
	for j := uint32(0); j < nPCs; j++ {
		pc, ok := u64()
		if !ok {
			return nil, 0, fail("branch pc")
		}
		pcs = append(pcs, pc)
	}
	nBCV, ok := u32()
	if !ok || !fits(uint64(nBCV), 8) {
		return nil, 0, fail("bcv len")
	}
	fi := &FuncImage{Name: name, Base: base, Hash: params, NumSlots: params.Slots()}
	if int(nBCV) != (fi.NumSlots+63)/64 {
		return nil, 0, fmt.Errorf("tables: %s: %d BCV words for %d slots", name, nBCV, fi.NumSlots)
	}
	fi.BCV = make([]uint64, 0, nBCV)
	fi.setBranchPCs(pcs)
	for j := uint32(0); j < nBCV; j++ {
		w, ok := u64()
		if !ok {
			return nil, 0, fail("bcv")
		}
		fi.BCV = append(fi.BCV, w)
	}
	nEnt, ok := u32()
	if !ok || !fits(uint64(nEnt), 12) {
		return nil, 0, fail("entry count")
	}
	fi.Entries = make([]BATEntry, 0, nEnt)
	for j := uint32(0); j < nEnt; j++ {
		tgt, ok1 := u32()
		act, ok2 := u32()
		next, ok3 := u32()
		if !ok1 || !ok2 || !ok3 {
			return nil, 0, fail("entry")
		}
		fi.Entries = append(fi.Entries, BATEntry{
			Target: int(tgt), Act: core.Action(act), Next: int32(next),
		})
	}
	if !fits(uint64(fi.NumSlots), 8) {
		return nil, 0, fail("heads")
	}
	fi.BATHeads = make([][2]int32, fi.NumSlots)
	for j := 0; j < fi.NumSlots; j++ {
		h0, ok1 := u32()
		h1, ok2 := u32()
		if !ok1 || !ok2 {
			return nil, 0, fail("heads")
		}
		fi.BATHeads[j] = [2]int32{int32(h0), int32(h1)}
	}
	if err := fi.checkLists(); err != nil {
		return nil, 0, err
	}
	n := fi.NumSlots
	fi.BSVBits = 2 * n
	fi.BCVBits = n
	ptrBits := log2ceil(len(fi.Entries) + 1)
	slotBits := log2ceil(n)
	fi.BATBits = 2*n*ptrBits + len(fi.Entries)*(slotBits+2+ptrBits)
	return fi, off, nil
}

// checkLists validates a decoded function's BAT: every head and Next
// link is -1 or an entry index, every Target is a slot, and every list
// reachable from a head terminates. Each entry is walked at most once
// over all heads (lists that share a verified tail stop there), so a
// hostile image costs linear time, never a hang.
func (fi *FuncImage) checkLists() error {
	n := int32(len(fi.Entries))
	for i, e := range fi.Entries {
		if e.Next < -1 || e.Next >= n {
			return fmt.Errorf("tables: %s: BAT entry %d links to %d of %d", fi.Name, i, e.Next, n)
		}
		if e.Target < 0 || e.Target >= fi.NumSlots {
			return fmt.Errorf("tables: %s: BAT entry %d targets slot %d of %d", fi.Name, i, e.Target, fi.NumSlots)
		}
	}
	// state: 0 unwalked, 1 on the walk in progress, 2 ends in -1.
	state := make([]uint8, n)
	for slot, heads := range fi.BATHeads {
		for _, h := range heads {
			if h < -1 || h >= n {
				return fmt.Errorf("tables: %s: slot %d BAT head %d of %d", fi.Name, slot, h, n)
			}
			j := h
			for j >= 0 && state[j] == 0 {
				state[j] = 1
				j = fi.Entries[j].Next
			}
			if j >= 0 && state[j] == 1 {
				return fmt.Errorf("tables: %s: slot %d BAT list cycles at entry %d", fi.Name, slot, j)
			}
			for j = h; j >= 0 && state[j] == 1; j = fi.Entries[j].Next {
				state[j] = 2
			}
		}
	}
	return nil
}
