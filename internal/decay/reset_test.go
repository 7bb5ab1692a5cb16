package decay

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// machineState flattens a machine into comparable form: every slice by
// content (a reset machine keeps unused storage at length zero where a
// fresh one has nil), every other field by value.
func machineState(m *Machine) string {
	v := reflect.ValueOf(m).Elem()
	s := ""
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Slice && f.Len() == 0 {
			s += fmt.Sprintf("%s:[] ", v.Type().Field(i).Name)
			continue
		}
		s += fmt.Sprintf("%s:%v ", v.Type().Field(i).Name, f)
	}
	return s
}

// drive runs a random mix of touches, promotions, demotions and interval
// changes through m and returns the expire callback stream.
func drive(m *Machine, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var fired []int
	expire := func(i int) { fired = append(fired, i) }
	cycle := uint64(0)
	for k := 0; k < 3000; k++ {
		cycle += uint64(rng.Intn(200))
		m.Advance(cycle, expire)
		i := rng.Intn(m.lines)
		switch r := rng.Intn(20); {
		case r < 14:
			m.Touch(i)
		case r < 16:
			m.Promote(i)
		case r < 18:
			m.Demote(i)
		case r == 18 && m.interval != 0:
			m.SetInterval(m.interval*2, cycle)
		}
	}
	return append(fired, -1, int(m.Rollovers), int(m.LocalBumps), int(m.LocalResets),
		int(m.Expiries), int(m.Promotions), int(m.Demotions))
}

// TestResetMatchesNew walks one machine through a sequence of modes —
// policy, per-line adaptivity, interval (decay off included) and line
// count — exercising it in each, and checks that every Reset leaves it in
// New's or NewPerLine's state and that both then behave identically.
// After the first configurations of each size, a reset allocates nothing.
func TestResetMatchesNew(t *testing.T) {
	type mode struct {
		lines    int
		interval uint64
		policy   Policy
		perLine  bool
	}
	modes := []mode{
		{64, 1024, PolicyNoAccess, false},
		{64, 4096, PolicyNoAccess, true},
		{64, 512, PolicySimple, false},
		{64, 0, PolicyNoAccess, false},
		{128, 2048, PolicyNoAccess, true},
		{32, 1024, PolicyNoAccess, false},
		{128, 1024, PolicySimple, false},
		{128, 8192, PolicyNoAccess, false},
		{128, 1024, PolicyNoAccess, true},
	}
	m := New(8, 1024, PolicyNoAccess)
	for k, md := range modes {
		drive(m, int64(k)) // leave state behind for Reset to clear
		m.Reset(md.lines, md.interval, md.policy, md.perLine)
		fresh := New(md.lines, md.interval, md.policy)
		if md.perLine {
			fresh = NewPerLine(md.lines, md.interval)
		}
		if got, want := machineState(m), machineState(fresh); got != want {
			t.Fatalf("mode %+v: reset state\n%s\nwant\n%s", md, got, want)
		}
		if got, want := drive(m, 100+int64(k)), drive(fresh, 100+int64(k)); !slices.Equal(got, want) {
			t.Fatalf("mode %+v: reset machine diverged from a fresh one", md)
		}
	}
	for _, md := range modes[4:] {
		md := md
		if a := testing.AllocsPerRun(5, func() { m.Reset(md.lines, md.interval, md.policy, md.perLine) }); a != 0 {
			t.Errorf("mode %+v: Reset allocated %v times", md, a)
		}
	}
}
