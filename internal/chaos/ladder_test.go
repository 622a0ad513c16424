package chaos

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files from this run")

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
	checkGolden(t, "testdata/ladder.golden", b.String())
}

// TestPlayersGolden pins every player's delivery record across the full
// campaign at seed 1: frames obtained and lost, and the health the stream
// ended in. Rewrite with go test ./internal/chaos -run TestPlayersGolden
// -update.
func TestPlayersGolden(t *testing.T) {
	var b strings.Builder
	for _, sc := range Campaign(1) {
		for i, p := range Run(sc).Players {
			fmt.Fprintf(&b, "%s player %d %s obtained=%d lost=%d health=%s\n",
				sc.Name, i, p.Path, p.Obtained, p.Lost, p.Health)
		}
	}
	checkGolden(t, "testdata/players.golden", b.String())
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update. A mismatch names the first differing line.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
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
			t.Fatalf("%s differs at line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}
