package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/media"
)

// The chaos drills' client behaviours as script ops on a live server: a
// viewer that hangs up, one that pauses and falls silent, and a scrubbing
// seek storm. Each ends or survives the way its drill relies on.
func TestMisbehaviourOps(t *testing.T) {
	movie := media.MPEG1().Generate("/m", 6*time.Second)
	infos, paths := []*media.StreamInfo{movie}, []string{"/m"}
	var outs []*Outcome
	m := lab.Build(lab.Setup{
		Seed: 1, DiskCylinders: 600,
		CRAS:   core.Config{MaxRequestsPerCycle: 4},
		Movies: []lab.Movie{{Path: "/m", Info: movie}},
	}, func(m *lab.Machine) {
		outs = Launch(m.Kernel, ServerOpener(m.CRAS, infos, paths), Script{
			{Ops: []Op{{Kind: OpHangUp, At: 4 * time.Second}}},
			{Ops: []Op{{Kind: OpSilent, At: 4 * time.Second, Pause: true}}},
			{Ops: []Op{{Kind: OpStorm, At: 4 * time.Second, N: 8, Scatter: true}}},
		}, PlayerConfig{})
	})
	m.Run(30 * time.Second)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		st := o.Stats
		if !st.Done || !o.Admitted || st.Fired != 1 || st.Err != nil || st.Refusals != 0 {
			t.Fatalf("viewer %d: done %v admitted %v fired %d err %v refusals %d",
				i, st.Done, o.Admitted, st.Fired, st.Err, st.Refusals)
		}
		if st.Obtained == 0 || st.Obtained+st.Lost != st.Frames {
			t.Errorf("viewer %d: obtained %d + lost %d of %d frames", i, st.Obtained, st.Lost, st.Frames)
		}
	}
	// The quitters stop counting where they quit; the scrubber plays on.
	for i, o := range outs[:2] {
		if o.Stats.Frames >= len(movie.Chunks) {
			t.Errorf("viewer %d quit at 4s yet accounted for all %d frames", i, o.Stats.Frames)
		}
	}
	if f := outs[2].Stats.Frames; f != len(movie.Chunks) {
		t.Errorf("scrubber accounted for %d of %d frames", f, len(movie.Chunks))
	}
	st := m.CRAS.Stats()
	if st.Seeks < 8 || st.Pauses != 1 || st.LeasesExpired != 1 {
		t.Errorf("server saw %d seeks, %d pauses, %d expired leases; want >= 8, 1, 1",
			st.Seeks, st.Pauses, st.LeasesExpired)
	}
	if n := m.CRAS.ActiveStreams(); n != 0 {
		t.Errorf("%d sessions still live; the silent one must have been reaped", n)
	}
}

// An open flood is split by outcome, one completion time per call.
func TestOpenFlooderAccounts(t *testing.T) {
	movie := media.MPEG1().Generate("/m", 2*time.Second)
	var fs FloodStats
	m := lab.Build(lab.Setup{
		Seed: 1, DiskCylinders: 600,
		CRAS:   core.Config{MaxRequestsPerCycle: 4, RequestQueueCap: 4},
		Movies: []lab.Movie{{Path: "/m", Info: movie}},
	}, func(m *lab.Machine) {
		OpenFlooder(m.Kernel, m.CRAS, movie, "/m", 32, 0, &fs)
	})
	m.Run(10 * time.Second)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if fs.Launched != 32 || fs.Admitted+fs.Shed+fs.Refused != 32 {
		t.Fatalf("flood of %d split %d admitted + %d shed + %d refused", fs.Launched, fs.Admitted, fs.Shed, fs.Refused)
	}
	if fs.Admitted == 0 || fs.Shed == 0 || fs.RetryHint <= 0 {
		t.Fatalf("flood admitted %d, shed %d, hint %v; want some of each and a retry hint", fs.Admitted, fs.Shed, fs.RetryHint)
	}
	for i, at := range fs.DoneAt {
		if at == 0 {
			t.Fatalf("flood call %d never completed", i)
		}
	}
}
