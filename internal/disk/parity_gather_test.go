package disk

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestParityGatherUsesPlannedDeadMember: a read's fragments are planned
// against the member states at submit time, so the gather must de-interleave
// against the same states even if a member dies (or is revived) while the
// read is in flight. A member killed mid-read was read directly, so its
// units are copied; a member revived mid-read was not read at all, so its
// units are reconstructed from the survivors.
func TestParityGatherUsesPlannedDeadMember(t *testing.T) {
	for _, tc := range []struct {
		name      string
		deadFirst bool // the home member is dead when the read is planned
	}{
		{"killed in flight", false},
		{"revived in flight", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			g, p := ST32550N()
			g.Cylinders = 4
			members := make([]*Disk, 4)
			for i := range members {
				members[i] = New(e, "sd"+string(rune('0'+i)), g, p)
			}
			v, err := NewParityVolume("pv", members, 64)
			if err != nil {
				t.Fatalf("NewParityVolume: %v", err)
			}
			ss := v.Geometry().SectorSize
			want := make([]byte, 8*ss)
			for i := range want {
				want[i] = byte(i*7 + 1)
			}
			for s := 0; s < 8; s++ {
				v.PokeSector(int64(s), want[s*ss:(s+1)*ss])
			}
			home, _ := v.Locate(0)
			if tc.deadFirst {
				v.SetDead(home, true)
			}
			var got []byte
			var gotErr error
			done := false
			v.Submit(&Request{LBA: 0, Count: 8, Data: make([]byte, 8*ss),
				Done: func(r *Request, data []byte) {
					got, gotErr, done = data, r.Err, true
				}})
			v.SetDead(home, !tc.deadFirst)
			e.Run()
			if !done {
				t.Fatal("read never completed")
			}
			if gotErr != nil {
				t.Fatalf("read failed: %v", gotErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("gathered data differs from what was stored")
			}
		})
	}
}
