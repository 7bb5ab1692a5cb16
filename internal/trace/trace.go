// Package trace records and replays instruction streams in a compact
// binary format, decoupling workload generation from simulation: a stream
// synthesized once (or, in principle, converted from an external tracer)
// can be replayed bit-identically into the timing model, shared between
// tools, or archived alongside experiment results.
//
// Format (little-endian):
//
//	magic "HLTR", version byte, name length + name, uint64 count hint,
//	then per instruction: op byte, then uvarint-delta-encoded PC, two
//	uvarint source distances, and (for memory ops) a uvarint-delta
//	address, and (for CTIs) a taken flag folded into the op byte plus a
//	uvarint-delta target.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hotleakage/internal/workload"
)

const (
	magic   = "HLTR"
	version = 1
	// takenBit is folded into the op byte for CTIs.
	takenBit = 0x80
	// minRecordBytes is the smallest encoded record: the op byte and three
	// one-byte varints (PC delta and both source distances).
	minRecordBytes = 4
)

// Writer serializes instructions to an underlying writer.
type Writer struct {
	w       *bufio.Writer
	count   uint64
	lastPC  uint64
	lastMem uint64
	lastTgt uint64
	buf     [binary.MaxVarintLen64]byte
}

// NewWriter writes a header for a trace named name (the benchmark) with an
// optional count hint (0 = unknown) and returns the writer.
func NewWriter(w io.Writer, name string, countHint uint64) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(version); err != nil {
		return nil, err
	}
	if len(name) > 255 {
		return nil, fmt.Errorf("trace: name %q too long", name)
	}
	if err := bw.WriteByte(byte(len(name))); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], countHint)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// zigzag encodes a signed delta as unsigned.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag decodes.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (w *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(w.buf[:], v)
	_, err := w.w.Write(w.buf[:n])
	return err
}

// Write appends one instruction.
func (w *Writer) Write(ins *workload.Instr) error {
	op := byte(ins.Op)
	if ins.Op.IsCTI() && ins.Taken {
		op |= takenBit
	}
	if err := w.w.WriteByte(op); err != nil {
		return err
	}
	if err := w.uvarint(zigzag(int64(ins.PC) - int64(w.lastPC))); err != nil {
		return err
	}
	w.lastPC = ins.PC
	if err := w.uvarint(uint64(uint32(ins.Src1))); err != nil {
		return err
	}
	if err := w.uvarint(uint64(uint32(ins.Src2))); err != nil {
		return err
	}
	if ins.Op.IsMem() {
		if err := w.uvarint(zigzag(int64(ins.Addr) - int64(w.lastMem))); err != nil {
			return err
		}
		w.lastMem = ins.Addr
	}
	if ins.Op.IsCTI() {
		if err := w.uvarint(zigzag(int64(ins.Target) - int64(w.lastTgt))); err != nil {
			return err
		}
		w.lastTgt = ins.Target
	}
	w.count++
	return nil
}

// Count returns the number of instructions written.
func (w *Writer) Count() uint64 { return w.count }

// Flush flushes buffered output; call it before closing the underlying
// file.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader replays a recorded trace. It implements cpu.InstrSource; when the
// trace is exhausted it wraps around (simulations run for a fixed
// instruction count, so a finite trace serves as a loop), counting laps.
type Reader struct {
	name    string
	hint    uint64
	records []workload.Instr
	pos     int
	// Laps counts wrap-arounds (0 while the first pass is in progress).
	Laps int
}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed stream")

// header is the parsed fixed-size prelude of an encoded stream.
type header struct {
	name string
	hint uint64
	// size is the header's encoded length in bytes; the record payload
	// starts here.
	size int
}

// parseHeader validates the prelude of an encoded stream held in memory.
func parseHeader(data []byte) (header, error) {
	if len(data) < len(magic)+2 || string(data[:len(magic)]) != magic {
		return header{}, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	if data[len(magic)] != version {
		return header{}, fmt.Errorf("%w: unsupported version", ErrBadTrace)
	}
	nameLen := int(data[len(magic)+1])
	off := len(magic) + 2
	if len(data) < off+nameLen+8 {
		return header{}, fmt.Errorf("%w: truncated header", ErrBadTrace)
	}
	h := header{
		name: string(data[off : off+nameLen]),
		hint: binary.LittleEndian.Uint64(data[off+nameLen:]),
		size: off + nameLen + 8,
	}
	return h, nil
}

// decoder walks the encoded record payload held in memory, reconstructing
// absolute PCs/addresses/targets from the deltas. It is the single decode
// implementation behind both Reader (materializing) and Cursor (streaming),
// so the two can never disagree about the format.
type decoder struct {
	data    []byte
	pos     int
	lastPC  uint64
	lastMem uint64
	lastTgt uint64
}

// reset rewinds the decoder to the start of the payload. The first record's
// deltas are relative to zero, so a reset reproduces the first pass exactly.
func (d *decoder) reset() {
	d.pos = 0
	d.lastPC, d.lastMem, d.lastTgt = 0, 0, 0
}

// uvarint reads one varint, advancing the cursor.
func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated record", ErrBadTrace)
	}
	d.pos += n
	return v, nil
}

// next decodes one instruction, setting every Instr field (non-memory ops
// get Addr 0, non-CTIs Taken=false/Target=0, matching a live generator).
// io.EOF reports a clean end of the payload.
func (d *decoder) next(ins *workload.Instr) error {
	if d.pos >= len(d.data) {
		return io.EOF
	}
	op := d.data[d.pos]
	d.pos++
	ins.Op = workload.OpClass(op &^ takenBit)
	delta, err := d.uvarint()
	if err != nil {
		return err
	}
	d.lastPC = uint64(int64(d.lastPC) + unzigzag(delta))
	ins.PC = d.lastPC
	s1, err := d.uvarint()
	if err != nil {
		return err
	}
	s2, err := d.uvarint()
	if err != nil {
		return err
	}
	ins.Src1, ins.Src2 = int32(uint32(s1)), int32(uint32(s2))
	ins.Addr = 0
	ins.Taken = false
	ins.Target = 0
	if ins.Op.IsMem() {
		dm, err := d.uvarint()
		if err != nil {
			return err
		}
		d.lastMem = uint64(int64(d.lastMem) + unzigzag(dm))
		ins.Addr = d.lastMem
	}
	if ins.Op.IsCTI() {
		ins.Taken = op&takenBit != 0
		dt, err := d.uvarint()
		if err != nil {
			return err
		}
		d.lastTgt = uint64(int64(d.lastTgt) + unzigzag(dt))
		ins.Target = d.lastTgt
	}
	return nil
}

// NewReader parses an entire trace into memory.
func NewReader(r io.Reader) (*Reader, error) {
	data, err := io.ReadAll(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	rd := &Reader{name: h.name, hint: h.hint}
	// The count hint is untrusted input: it sizes the preallocation only
	// up to the records the payload can hold, so a forged hint cannot
	// reserve memory no record will fill (the records define the length).
	payload := data[h.size:]
	if n := min(rd.hint, uint64(len(payload)/minRecordBytes)); n > 0 {
		rd.records = make([]workload.Instr, 0, n)
	}
	dec := decoder{data: payload}
	for {
		var ins workload.Instr
		err := dec.next(&ins)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rd.records = append(rd.records, ins)
	}
	if len(rd.records) == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadTrace)
	}
	return rd, nil
}

// Name returns the recorded benchmark name.
func (r *Reader) Name() string { return r.name }

// Len returns the number of recorded instructions.
func (r *Reader) Len() int { return len(r.records) }

// Next implements cpu.InstrSource, wrapping around at the end.
func (r *Reader) Next(ins *workload.Instr) {
	*ins = r.records[r.pos]
	r.pos++
	if r.pos == len(r.records) {
		r.pos = 0
		r.Laps++
	}
}

// Record captures n instructions from any source into w.
func Record(src interface{ Next(*workload.Instr) }, w *Writer, n uint64) error {
	var ins workload.Instr
	for i := uint64(0); i < n; i++ {
		src.Next(&ins)
		if err := w.Write(&ins); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Source is anything that yields an instruction stream (a live
// workload.Generator, a Reader, a Cursor). It is the same contract as
// cpu.InstrSource, restated here so this package needs no cpu import.
type Source interface{ Next(*workload.Instr) }

// Buffer is a recorded instruction stream held in its compact encoded form
// (a few bytes per instruction instead of the ~48 of a decoded
// workload.Instr), shared read-only between any number of replaying
// Cursors. It is the record-once/replay-many primitive behind the sweep
// trace cache: the synthetic generator runs once per benchmark and every
// simulation cell replays the bytes.
//
// A Buffer normally lives in memory; RecordBuffer with a non-empty
// spillDir writes the encoded stream to a file there instead, bounding
// resident memory to one transient copy per in-flight replay (each Cursor
// of a spilled buffer re-reads the file) at the cost of that read.
type Buffer struct {
	name    string
	count   uint64
	payload []byte // encoded records, header stripped (nil when spilled)
	path    string // spill file holding the full encoded stream
	hdrSize int    // header bytes to skip in the spill file
	size    int64  // payload size in bytes
}

// RecordBuffer captures n instructions from src into a new Buffer. With a
// non-empty spillDir the encoded stream is written to a file in that
// directory (which must exist) instead of being kept in memory.
func RecordBuffer(name string, src Source, n uint64, spillDir string) (*Buffer, error) {
	if n == 0 {
		return nil, fmt.Errorf("trace: cannot record an empty buffer for %q", name)
	}
	b := &Buffer{name: name, count: n}
	if spillDir == "" {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, name, n)
		if err != nil {
			return nil, err
		}
		if err := Record(src, w, n); err != nil {
			return nil, err
		}
		data := buf.Bytes()
		h, err := parseHeader(data)
		if err != nil {
			return nil, err
		}
		b.payload = data[h.size:]
		b.size = int64(len(b.payload))
		return b, nil
	}
	f, err := os.CreateTemp(spillDir, fmt.Sprintf("%s-*.hltrace", filepath.Base(name)))
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, name, n)
	if err == nil {
		err = Record(src, w, n)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return nil, err
	}
	b.path = f.Name()
	// Header size is deterministic from the name; re-derive it rather than
	// re-reading the file.
	b.hdrSize = len(magic) + 2 + len(name) + 8
	if fi, err := os.Stat(b.path); err == nil {
		b.size = fi.Size() - int64(b.hdrSize)
	}
	return b, nil
}

// Name returns the recorded benchmark name.
func (b *Buffer) Name() string { return b.name }

// Len returns the number of recorded instructions.
func (b *Buffer) Len() uint64 { return b.count }

// SizeBytes returns the encoded payload size (memory held, or file bytes
// past the header when spilled).
func (b *Buffer) SizeBytes() int64 { return b.size }

// Spilled reports whether the buffer lives on disk.
func (b *Buffer) Spilled() bool { return b.path != "" }

// Close releases the buffer's disk file, if any. In-memory buffers are
// garbage-collected; Close on them is a no-op.
func (b *Buffer) Close() error {
	if b.path == "" {
		return nil
	}
	err := os.Remove(b.path)
	b.path = ""
	return err
}

// Cursor returns a fresh independent replayer positioned at the start of
// the stream. Cursors of an in-memory buffer share its payload bytes; a
// spilled buffer's cursor reads the file once at creation.
func (b *Buffer) Cursor() (*Cursor, error) {
	data := b.payload
	if b.path != "" {
		raw, err := os.ReadFile(b.path)
		if err != nil {
			return nil, fmt.Errorf("trace: reload spilled buffer: %w", err)
		}
		if len(raw) < b.hdrSize {
			return nil, fmt.Errorf("%w: spilled buffer truncated", ErrBadTrace)
		}
		data = raw[b.hdrSize:]
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty buffer", ErrBadTrace)
	}
	return &Cursor{d: decoder{data: data}}, nil
}

// Cursor streams a Buffer's instructions, decoding on the fly (no
// per-replay materialization of the decoded stream). Like Reader it wraps
// around at the end, counting laps: a replayed simulation run must consume
// at most the recorded length for bit-identical results, and the caller
// checks Laps()==0 to prove it did.
type Cursor struct {
	d    decoder
	laps int
}

// Next implements the instruction-source contract. The buffer was encoded
// by this package, so a decode failure is a programming error reported by
// panic (the experiment supervisor converts panics into structured run
// failures).
func (c *Cursor) Next(ins *workload.Instr) {
	err := c.d.next(ins)
	if err == io.EOF {
		c.d.reset()
		c.laps++
		err = c.d.next(ins)
	}
	if err != nil {
		panic(fmt.Sprintf("trace: corrupt buffer payload: %v", err))
	}
}

// Laps reports how many times the cursor wrapped past the end.
func (c *Cursor) Laps() int { return c.laps }
