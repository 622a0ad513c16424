// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the substrates in this repository — the Real-Time Mach scheduling
// model (internal/rtm), the disk model (internal/disk), the file system
// (internal/ufs) and the CRAS server itself (internal/core) — run on top of
// this engine in virtual time. Virtual time has nanosecond resolution and
// advances only when the event at the head of the calendar fires, so a run
// is bit-reproducible regardless of wall-clock scheduling, GC pauses, or
// host load. That property is what lets a Go program make meaningful
// statements about rate guarantees: the paper's Real-Time Mach kernel
// provided predictable scheduling in real time; we provide it in virtual
// time.
//
// Two programming models are offered:
//
//   - Plain events: Engine.At / Engine.After schedule a callback at an
//     absolute or relative virtual time. Callbacks run on the engine
//     goroutine, one at a time.
//
//   - Processes: Engine.Spawn starts an iter.Pull coroutine with sequential
//     blocking semantics (Sleep, Block/Unblock, Queue.Get). Exactly one
//     process or event callback executes at any moment: an event resumes a
//     process with a direct coroutine switch and the process switches back
//     when it blocks, so processes interleave deterministically in (time,
//     seq) order just like events. A panic in a process body propagates out
//     of the Step that resumed it. The coroutines need Go 1.23.
//     Each process owns its wake-up event: a Timer embedded in the Proc
//     that Spawn, Sleep, SleepUntil and Unblock re-arm. A process has at
//     most one pending wake-up, so scheduling one allocates nothing. The
//     timer draws its sequence number when it is armed, as At does, so
//     wake-ups and plain events at one instant still fire
//     first-scheduled first. Callers never see the process's timer.
//
// Randomness is only available through named RNG streams (Engine.RNG) whose
// seeds derive from the engine seed and the stream name, keeping stochastic
// workloads reproducible.
package sim
