// Lockstep batch front end: the per-instruction work that does not depend
// on a variant's timing or leakage state — stream generation, branch
// prediction, I-cache line grouping — computed once per (benchmark, run
// length, predictor config) and replayed into every variant core of every
// machine config that shares them (the L2 latency never reaches the
// front).
//
// The split rests on an invariant of this trace-driven model: the fetch
// STREAM is identical for every variant of one benchmark. Fetch order is
// stream order regardless of stalls (stalls change WHEN an instruction is
// fetched, never WHICH instruction comes next), so everything derived
// purely from the stream prefix — predictor lookups/updates and their
// outcomes, the fetch-line dedup that decides which instructions access
// the I-cache, dependence distances — is variant-independent and can be
// precomputed. Everything cycle-dependent (cache hit/miss LATENCIES, the
// wheel, the done array, leakctl decay state) stays per-variant: a replay
// core still performs its own I-cache/D-cache accesses against its own
// hierarchy, it just no longer decodes or predicts.
package cpu

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hotleakage/internal/bpred"
	"hotleakage/internal/workload"
)

// FrontRec flag bits: the per-instruction front-end outcomes a replaying
// lane consumes instead of recomputing.
const (
	// FrontICAccess marks the first instruction of a new 64-byte fetch
	// line — the instructions for which the scalar fetch path performs an
	// I-cache access.
	FrontICAccess uint8 = 1 << iota
	// FrontMisp marks a mispredicted CTI (wrong-path flush: fetch stalls
	// until the branch resolves).
	FrontMisp
	// FrontBubble marks a correctly-directed CTI whose target had to come
	// from decode (fixed 2-cycle front-end bubble).
	FrontBubble
	// FrontBPUpdate marks a CTI that ran Predictor.Update (OpBranch,
	// OpCall): bpred.Stats.Branches advances by one.
	FrontBPUpdate
	// FrontBPDirMisp / FrontBPBTBMiss carry the Update call's Stats deltas.
	FrontBPDirMisp
	FrontBPBTBMiss
	// FrontTaken is the instruction's actual direction (workload.Instr's
	// Taken).
	FrontTaken
)

// FrontRec is one precomputed instruction, packed to 16 bytes: the
// decoded fields replay reads plus the variant-independent front-end
// outcome flags. The CTI target is not kept — the predictor consumes it
// during the fill and replay never reads it.
//
// PC and Addr hold 32 bits: the fill panics on a wider value (the
// generated streams stay far below 2^32), which fails the front like any
// other fill error. Src1/Src2 are dependence distances clamped at
// FrontMaxDist. The clamp is exact: a distance past the RUU ring names a
// producer that has committed by the time its consumer reads it, which
// readyTime treats like no dependence, and AttachFront refuses any core
// whose ring could reach FrontMaxDist.
type FrontRec struct {
	PC, Addr   uint32
	Src1, Src2 uint16
	Op         workload.OpClass
	Flags      uint8
	_          [2]byte
}

// FrontMaxDist is the largest dependence distance a FrontRec holds.
const FrontMaxDist = 0xFFFF

// FrontChunkShift sizes a front chunk: 1<<16 records, 1 MiB.
const (
	FrontChunkShift = 16
	FrontChunkLen   = 1 << FrontChunkShift
)

// FrontChunk is one fixed-size run of consecutive front records.
type FrontChunk [FrontChunkLen]FrontRec

// FrontChunks supplies chunk storage to a front and takes it back once
// every reader has passed it.
type FrontChunks interface {
	Get() *FrontChunk
	Put(*FrontChunk)
}

// Front is a precomputed stream held as a fixed table of chunks. Chunks
// are filled in stream order the first time any reader needs them and are
// immutable once published, so readers load them lock-free. Each chunk
// carries one reference per registered reader (a lockstep group); a
// reader drops its references with Release as it passes chunks, and a
// chunk goes back to the store when its last reference is dropped. A
// reader that has not started still holds every chunk, so the worst case
// is the whole stream.
type Front struct {
	n      uint64
	chunks []atomic.Pointer[FrontChunk]
	refs   []atomic.Int32
	store  FrontChunks

	// Fill state, under mu: chunks below filled have been filled (and
	// possibly released since). The generator and predictor are dropped
	// after the last chunk, or when a fill fails; err is that failure.
	mu       sync.Mutex
	filled   int
	err      error
	gen      *workload.Generator
	pred     *bpred.Predictor
	lastLine uint64
}

// NewFront returns an unfilled front of n records shared by readers
// readers, with chunk storage from store.
func NewFront(n uint64, readers int, store FrontChunks) *Front {
	nc := int((n + FrontChunkLen - 1) >> FrontChunkShift)
	f := &Front{
		n:        n,
		chunks:   make([]atomic.Pointer[FrontChunk], nc),
		refs:     make([]atomic.Int32, nc),
		store:    store,
		lastLine: ^uint64(0),
	}
	for i := range f.refs {
		f.refs[i].Store(int32(readers))
	}
	return f
}

// Start sets the fill source: the stream comes from gen and its predictor
// outcomes from pred. pred must be freshly built: it plays the role every
// lane's private predictor plays on the scalar path, and its table state
// after the stream is exactly the scalar predictor's (the parity tests pin
// this). Start must happen before any reader runs.
func (f *Front) Start(gen *workload.Generator, pred *bpred.Predictor) {
	f.gen, f.pred = gen, pred
}

// Chunks returns the length of the chunk table.
func (f *Front) Chunks() int { return len(f.chunks) }

// Release drops one reference to each chunk in [from, to): a reader is
// past them. A chunk whose last reference goes returns to the store.
func (f *Front) Release(from, to int) {
	for i := from; i < to; i++ {
		if f.refs[i].Add(-1) == 0 {
			if c := f.chunks[i].Swap(nil); c != nil {
				f.store.Put(c)
			}
		}
	}
}

// chunk returns chunk i, filling the stream up to it if no reader has.
// A published chunk costs one atomic load; only the first reader of an
// unfilled chunk takes the fill lock. A failed fill makes every later
// request panic with the fill error.
func (f *Front) chunk(i int) *FrontChunk {
	if c := f.chunks[i].Load(); c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Re-check under the lock: a sibling may have published chunk i while
	// this reader waited, and only then does "below filled, but nil" mean
	// released.
	if c := f.chunks[i].Load(); c != nil {
		return c
	}
	if f.err != nil {
		panic(f.err)
	}
	if i < f.filled {
		panic(fmt.Sprintf("cpu: front chunk %d read after release", i))
	}
	var c *FrontChunk
	for f.filled <= i {
		c = f.fillNext()
	}
	return c
}

// fillNext fills and publishes the next chunk in stream order. Called
// with mu held.
func (f *Front) fillNext() *FrontChunk {
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("batch front fill: %v", r)
			f.gen, f.pred = nil, nil
			panic(f.err)
		}
	}()
	k := f.filled
	c := f.store.Get()
	base := uint64(k) << FrontChunkShift
	recs := c[:min(f.n-base, FrontChunkLen)]
	gen, pred := f.gen, f.pred
	var ins workload.Instr
	for i := range recs {
		gen.Next(&ins)
		flags := uint8(0)
		if line := ins.PC >> 6; line != f.lastLine {
			f.lastLine = line
			flags = FrontICAccess
		}
		if ins.Taken {
			flags |= FrontTaken
		}
		if ins.Op.IsCTI() {
			before := pred.Stats
			misp, bubble := predictCTI(pred, &ins)
			if misp {
				flags |= FrontMisp
			}
			if bubble {
				flags |= FrontBubble
			}
			if pred.Stats.Branches != before.Branches {
				flags |= FrontBPUpdate
			}
			if pred.Stats.DirMispredict != before.DirMispredict {
				flags |= FrontBPDirMisp
			}
			if pred.Stats.BTBMiss != before.BTBMiss {
				flags |= FrontBPBTBMiss
			}
		}
		if ins.PC > math.MaxUint32 || ins.Addr > math.MaxUint32 {
			panic(fmt.Sprintf("record %d: PC %#x or address %#x does not fit 32 bits", base+uint64(i), ins.PC, ins.Addr))
		}
		recs[i] = FrontRec{
			PC: uint32(ins.PC), Addr: uint32(ins.Addr),
			Src1: frontDist(ins.Src1), Src2: frontDist(ins.Src2),
			Op: ins.Op, Flags: flags,
		}
	}
	f.chunks[k].Store(c)
	f.filled++
	if f.filled == len(f.chunks) {
		f.gen, f.pred = nil, nil
	}
	// Every reader may already have released a chunk it never read (a
	// group that exited early); hand such a chunk straight back. Release
	// swaps too, so exactly one side returns it.
	if f.refs[k].Load() <= 0 {
		if c := f.chunks[k].Swap(nil); c != nil {
			f.store.Put(c)
		}
	}
	return c
}

// frontDist clamps a dependence distance to a FrontRec field. It reads
// the distance as fetch does, as an unsigned 32-bit value.
func frontDist(d int32) uint16 {
	return uint16(min(uint32(d), FrontMaxDist))
}

// AttachFront switches the core into replay mode: fetch consumes the
// precomputed records (from the beginning) instead of generating and
// predicting live. The core's own Gen and Pred are not touched in this
// mode; per-run predictor statistics accumulate in Core.BP from the
// recorded deltas. Recycle detaches any front (the rebuilt core starts in
// live mode), so a reused lane must re-attach per run.
//
// A core whose RUU ring is FrontMaxDist slots or longer is refused: its
// window could hold a producer at the clamped distance, so the clamp would
// no longer be exact. Such a core runs on the live path instead.
func (c *Core) AttachFront(f *Front) error {
	if c.ringMask >= FrontMaxDist-1 {
		return fmt.Errorf("cpu: a %d-slot RUU ring exceeds the front's %d-instruction dependence range", c.ringMask+1, FrontMaxDist)
	}
	c.front = f
	c.frontPos = 0
	c.frontEnd = 0
	c.frontCur = nil
	return nil
}

// FrontPos returns how many front records the core has fetched: it never
// reads a record below this position again.
func (c *Core) FrontPos() int { return c.frontPos }

// nextFrontChunk moves the core's read window onto the chunk holding
// frontPos.
func (c *Core) nextFrontChunk() {
	f := c.front
	if uint64(c.frontPos) >= f.n {
		// The front was sized to the run length plus slack
		// (warmup+measure+slack), which bounds every lane's fetch-ahead;
		// running past it means the run was asked for more instructions
		// than the front holds. The batch executor recovers the panic into
		// a per-lane failure and re-runs the cell on the scalar path.
		panic(fmt.Sprintf("cpu: front exhausted at %d records", f.n))
	}
	i := c.frontPos >> FrontChunkShift
	c.frontCur = f.chunk(i)
	c.frontEnd = int(min(uint64(i+1)<<FrontChunkShift, f.n))
}

// fetchReplay is fetch for a front-attached core: structurally identical
// to Core.fetch, but the instruction comes from the precomputed record and
// the predictor outcome from its flags. The I-cache access (latency
// depends on this lane's L2 state) and all stall bookkeeping remain
// per-lane, so the timing behaviour is bit-identical to the live path.
func (c *Core) fetchReplay(cycle uint64) bool {
	if c.pendingBranch != 0 {
		if c.pendingBranch < c.tail {
			if d := c.done[c.pendingBranch&c.ringMask]; d != notIssued {
				c.fetchStall = d>>1 + uint64(c.Cfg.MispredictPen)
				c.pendingBranch = 0
			}
		}
		if c.pendingBranch != 0 {
			c.Stats.FetchStallCy++
			return false
		}
	}
	if cycle < c.fetchStall {
		c.Stats.FetchStallCy++
		return false
	}
	if c.nextSeq-c.tail >= uint64(2*c.Cfg.FetchWidth) {
		return false
	}
	mask := c.ringMask
	for w := 0; w < c.Cfg.FetchWidth; w++ {
		if c.frontPos >= c.frontEnd {
			c.nextFrontChunk()
		}
		rec := &c.frontCur[c.frontPos&(FrontChunkLen-1)]
		c.frontPos++
		seq := c.nextSeq
		c.nextSeq = seq + 1
		s := seq & mask
		if d := uint64(rec.Src1); d != 0 && seq > d {
			c.src1[s] = seq - d
		} else {
			c.src1[s] = 0
		}
		if d := uint64(rec.Src2); d != 0 && seq > d {
			c.src2[s] = seq - d
		} else {
			c.src2[s] = 0
		}
		c.addr[s] = uint64(rec.Addr)
		c.ops[s] = rec.Op

		stop := false
		flags := rec.Flags

		if flags&FrontICAccess != 0 {
			if lat := c.ICache.Access(uint64(rec.PC), false, cycle); lat > c.ICache.HitLat() {
				c.Stats.ICacheStalls++
				c.fetchStall = cycle + uint64(lat)
				stop = true
			}
		}

		if rec.Op.IsCTI() {
			c.Stats.Branches++
			if flags&FrontBPUpdate != 0 {
				c.BP.Branches++
			}
			if flags&FrontBPDirMisp != 0 {
				c.BP.DirMispredict++
			}
			if flags&FrontBPBTBMiss != 0 {
				c.BP.BTBMiss++
			}
			if flags&FrontMisp != 0 {
				c.Stats.Mispredicts++
				c.pendingBranch = seq
				return true
			}
			if flags&FrontBubble != 0 {
				c.fetchStall = cycle + 2
				return true
			}
			if flags&FrontTaken != 0 {
				return true
			}
		}
		if stop {
			return true
		}
	}
	return true
}
