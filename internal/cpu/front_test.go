package cpu

import (
	"testing"
	"unsafe"

	"hotleakage/internal/bpred"
	"hotleakage/internal/workload"
)

// TestFrontRecPacked pins the packed record layout: a front costs 32 bytes
// per instruction, which is what bounds a sweep's resident front memory.
func TestFrontRecPacked(t *testing.T) {
	if got := unsafe.Sizeof(FrontRec{}); got != 32 {
		t.Fatalf("sizeof(FrontRec) = %d, want 32", got)
	}
}

// TestFrontFillMatchesGenerator checks, for every profile, that the packed
// records carry exactly the fields replay reads — PC, address, both
// dependence distances, op class and direction — of a fresh generator's
// stream. One Front is refilled across profiles, so dirty capacity reuse
// is covered too.
func TestFrontFillMatchesGenerator(t *testing.T) {
	const n = 50_000
	var f Front
	for _, name := range workload.Names() {
		prof, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		f.Fill(workload.NewGenerator(prof), bpred.New(bpred.DefaultConfig()), n)
		if len(f.Recs) != n {
			t.Fatalf("%s: filled %d records, want %d", name, len(f.Recs), n)
		}
		gen := workload.NewGenerator(prof)
		var ins workload.Instr
		for i, r := range f.Recs {
			gen.Next(&ins)
			if r.PC != ins.PC || r.Addr != ins.Addr || r.Src1 != ins.Src1 ||
				r.Src2 != ins.Src2 || r.Op != ins.Op || (r.Flags&FrontTaken != 0) != ins.Taken {
				t.Fatalf("%s record %d: %+v does not match generator %+v", name, i, r, ins)
			}
		}
	}
}
