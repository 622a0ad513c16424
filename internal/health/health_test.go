package health

import (
	"testing"
	"time"
)

// TestStepCarryIsTheOnlyDifference walks one failure sequence under two
// rules that differ only in Carry. The window ages 2 → 1 over the clean
// cycle and enters the middle rung at 3 on the third; carried, three more
// failures reach Out (6), counted afresh it takes six.
func TestStepCarryIsTheOnlyDifference(t *testing.T) {
	fresh := Rule{Enter: 3, Out: 6, Carry: 0, Recover: 2, Why: [3]Cause{CleanCycles, HardFailures, HardFailures}}
	carried := fresh
	carried.Carry = 1 << 30
	type step struct {
		cycle int
		mv    Move
	}
	walk := func(r Rule) []step {
		var l Ladder
		at := Top
		var steps []step
		for i, e := range []int{2, 0, 2, 1, 1, 1, 1, 1, 1, 1} {
			if mv := l.Step(at, e, &r); mv.Cause != None {
				steps = append(steps, step{i, mv})
				at = mv.To
			}
		}
		return steps
	}
	for name, tc := range map[string]struct {
		r    Rule
		want []step
	}{
		"fresh":   {fresh, []step{{2, Move{Middle, HardFailures, 3}}, {8, Move{Out, HardFailures, 6}}}},
		"carried": {carried, []step{{2, Move{Middle, HardFailures, 3}}, {5, Move{Out, HardFailures, 6}}}},
	} {
		got := walk(tc.r)
		if len(got) != len(tc.want) || got[0] != tc.want[0] || got[1] != tc.want[1] {
			t.Errorf("%s: moves %v, want %v", name, got, tc.want)
		}
	}
	// Recovery: Recover clean cycles on the middle rung climb back and
	// clear the window.
	var l Ladder
	l.Step(Top, 3, &fresh)
	if mv := l.Step(Middle, 0, &fresh); mv.Cause != None {
		t.Fatalf("recovered after one clean cycle: %v", mv)
	}
	if mv := l.Step(Middle, 0, &fresh); mv != (Move{Top, CleanCycles, 2}) {
		t.Fatalf("recovery move = %v", mv)
	}
	if l != (Ladder{}) {
		t.Errorf("ladder after recovery = %+v, want cleared", l)
	}
	// Out and beyond never move.
	if mv := l.Step(Out, 5, &fresh); mv.Cause != None {
		t.Errorf("out rung moved: %v", mv)
	}
}

func TestReasonText(t *testing.T) {
	for _, tc := range []struct {
		r    Reason
		want string
	}{
		{Reason{ReadFailures, 3}, "3 unrecovered read failures"},
		{Reason{CleanCycles, 8}, "8 clean cycles"},
		{Reason{LoadShed, 3}, "load shed after 3 consecutive I/O overruns"},
		{Reason{LeaseExpired, int(4 * time.Second)}, "lease expired after 4s idle"},
		{Reason{RebuildComplete, 12}, "rebuild complete (12 rows)"},
		{Reason{MissedHeartbeats, 4}, "missed cycle heartbeats"},
		{Reason{SuspensionTimeout, 0}, "suspension timed out"},
	} {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("%q with %d = %q, want %q", tc.r.Cause, tc.r.N, got, tc.want)
		}
	}
}
