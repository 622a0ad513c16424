package chaos

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateLadder = flag.Bool("update", false, "rewrite testdata/ladder.golden from this run")

// TestLadderGolden pins every health transition of the full campaign at
// seed 1 — stream, parity-member and cluster-node ladders alike — as
// (scenario, ladder, id, from, to, cycle or time). Any change to when a
// ladder moves, or to which rung it moves to, shows up as a diff. Rewrite
// the file with go test ./internal/chaos -run TestLadderGolden -update.
func TestLadderGolden(t *testing.T) {
	var b strings.Builder
	for _, sc := range Campaign(1) {
		res := Run(sc)
		for _, ev := range res.Ladder {
			fmt.Fprintf(&b, "%s stream %d %s %s %d\n", sc.Name, ev.StreamID, ev.From, ev.To, ev.Cycle)
		}
		for _, ev := range res.Members {
			fmt.Fprintf(&b, "%s member %d %s %s %d\n", sc.Name, ev.Member, ev.From, ev.To, ev.Cycle)
		}
		for _, ev := range res.NodeEvents {
			fmt.Fprintf(&b, "%s node %d %s %s %v\n", sc.Name, ev.ID, ev.From, ev.To, ev.At)
		}
	}
	const path = "testdata/ladder.golden"
	if *updateLadder {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("ladder transitions differ from %s at line %d:\n got  %q\n want %q", path, i+1, g, w)
			}
		}
	}
}
