// Package health is the one ladder CRAS walks when service goes wrong: a
// stream whose reads keep failing, a parity member that keeps producing
// hard failures, a cluster node whose scheduler stops cycling. Each
// subject sits on one of three rungs — top (healthy), middle (degraded or
// suspect) and out (suspended or dead) — and its Ladder moves it from the
// failures observed in one cycle or heartbeat. Subjects differ only in
// data: a Rule's thresholds and the causes its moves report.
//
// Every move carries a typed Cause and one count, so no transition formats
// anything; Reason renders the text only when a trace line or a test
// prints it.
package health

import (
	"fmt"
	"strings"
	"time"
)

// Rungs of the ladder. Each subject's health type numbers its first three
// positions the same way, so a Move's To converts directly.
const (
	Top = iota
	Middle
	Out
)

// Rule is one subject's thresholds and the causes its moves report.
type Rule struct {
	Enter   int // window failures that move the top rung to the middle
	Out     int // failures counted on the middle rung that move it out
	Carry   int // most failures of the entry window that count toward Out
	Recover int // consecutive clean cycles that move the middle rung back up

	// Why is the cause each ladder move reports, indexed by the rung it
	// moves to.
	Why [3]Cause
}

// Ladder is one subject's counters. The rung itself belongs to the caller —
// it is the subject's health, which has positions past the ladder too
// (evicted, rebuilding) — and is passed to Step.
type Ladder struct {
	errs  int // top rung: the aging error window; middle rung: failures toward Rule.Out
	clean int // consecutive clean cycles on the middle rung
}

// Move is one transition: the rung moved to, its cause and the count
// behind it. The zero Move (cause None) is no move.
type Move struct {
	To    int
	Cause Cause
	N     int
}

// Step advances the ladder by one cycle in which errs failures were
// observed while the subject stood on rung at, and returns the move that
// cycle earns. On the top rung the window grows by each cycle's failures
// and ages by one per clean cycle; on the middle rung failures accumulate
// toward Rule.Out and a run of Rule.Recover clean cycles climbs back. Step
// never moves a subject that is out or past the ladder; applying an Out
// move — or declining it — is the caller's decision.
func (l *Ladder) Step(at, errs int, r *Rule) Move {
	switch {
	case at == Top && errs == 0:
		if l.errs > 0 {
			l.errs-- // old failures age out
		}
	case at == Top:
		l.errs += errs
		if l.errs >= r.Enter {
			n := l.errs
			l.Enter(r)
			return Move{To: Middle, Cause: r.Why[Middle], N: n}
		}
	case at == Middle && errs > 0:
		l.errs += errs
		l.clean = 0
		if l.errs >= r.Out {
			return Move{To: Out, Cause: r.Why[Out], N: l.errs}
		}
	case at == Middle:
		l.clean++
		if l.clean >= r.Recover {
			n := l.clean
			l.Reset()
			return Move{To: Top, Cause: r.Why[Top], N: n}
		}
	}
	return Move{}
}

// Enter (re)starts the middle rung's counts: at most Rule.Carry of the
// window's failures count toward Out, and the clean run starts at zero.
// Step calls it on the way down; a caller re-entering the middle rung —
// the frame-rate ladder's step-down — calls it directly.
func (l *Ladder) Enter(r *Rule) {
	l.errs = min(l.errs, r.Carry)
	l.clean = 0
}

// Reset clears the ladder, as for a subject starting afresh on the top
// rung (a replaced or rebuilt member).
func (l *Ladder) Reset() { *l = Ladder{} }

// Cause is why a subject moved: the text its trace line prints, with a
// verb where a move of that cause carries a count.
type Cause string

const (
	None Cause = ""

	// Ladder moves.
	ReadFailures     Cause = "%d unrecovered read failures"
	DegradedFailures Cause = "%d failures while degraded"
	HardFailures     Cause = "%d hard failures"
	CleanCycles      Cause = "%d clean cycles"
	MissedHeartbeats Cause = "missed cycle heartbeats"
	CyclesResumed    Cause = "cycles resumed"

	// Stream suspensions and evictions.
	SuspensionTimeout Cause = "suspension timed out"
	OverCommitted     Cause = "over-committed in degraded mode"
	LoadShed          Cause = "load shed after %d consecutive I/O overruns"
	LeaseExpired      Cause = "lease expired after %v idle" // N is the idle time in ns
	ClientGone        Cause = "client port destroyed"
	DrainDeadline     Cause = "drain deadline"

	// Member operator actions and rebuilds.
	OperatorFail        Cause = "operator fail"
	ReplacementAttached Cause = "replacement attached"
	RebuildAborted      Cause = "rebuild aborted: row %d failed"
	RebuildComplete     Cause = "rebuild complete (%d rows)"

	// Node verdicts outside the heartbeat ladder.
	ServerStopped Cause = "server stopped"
	DeadName      Cause = "dead-name notification"
)

// Reason is a cause with its count, printed the way trace lines show it.
type Reason struct {
	Cause Cause
	N     int
}

// String fills the cause's verb with the count: %d prints it as a number,
// %v (a duration cause) as a duration.
func (r Reason) String() string {
	if !strings.Contains(string(r.Cause), "%") {
		return string(r.Cause)
	}
	return fmt.Sprintf(string(r.Cause), time.Duration(r.N))
}
