package bench

import (
	"os"
	"strings"
	"testing"
)

// Smoke tests: every figure harness runs end to end at Small scale and
// produces plausible series. (The root bench_test.go exposes them as
// testing.B benchmarks; these guard against regressions in go test runs.)
// They are skipped in -short mode: each takes tens of seconds.

// skipHeavyUnderRace exempts the longest figure harnesses from race-enabled
// runs: the detector slows them 10-20x, pushing the package past go test's
// default 10-minute budget. The remaining figures keep the cluster, engine
// and rmem paths under the detector; the skipped ones run in the plain
// suite.
func skipHeavyUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("figure too heavy under -race; covered by the non-race run")
	}
}

func runFig(t *testing.T, fn func(Scale) (*Result, error), minSeries int) *Result {
	t.Helper()
	if testing.Short() {
		t.Skip("figure smoke tests skipped in -short mode")
	}
	r, err := fn(Scale{Small: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) < minSeries {
		t.Fatalf("%s: %d series, want >= %d", r.ID, len(r.Series), minSeries)
	}
	for _, s := range r.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s series %s empty", r.ID, s.Name)
		}
	}
	r.Print(os.Stdout)
	return r
}

func TestFig08Smoke(t *testing.T) { runFig(t, Fig08, 2) }
func TestFig09Smoke(t *testing.T) { runFig(t, Fig09, 4) }
func TestFig10aSmoke(t *testing.T) {
	skipHeavyUnderRace(t)
	r := runFig(t, Fig10a, 2)
	// Shape assertion: serverless wins the middle config.
	sv, pb := r.Series[0], r.Series[1]
	if sv.Points[1].Y <= pb.Points[1].Y {
		t.Logf("warning: serverless (%0.0f) did not beat PolarDB (%0.0f) in config 2",
			sv.Points[1].Y, pb.Points[1].Y)
	}
}
func TestFig10bSmoke(t *testing.T) { runFig(t, Fig10b, 3) }
func TestFig11Smoke(t *testing.T) {
	skipHeavyUnderRace(t)
	r := runFig(t, Fig11, 6)
	// Shape assertion: swapping falls as local memory grows toward the
	// working set.
	for _, s := range r.Series {
		if !strings.HasSuffix(s.Name, "pages swapped") {
			continue
		}
		small, large := s.Points[0], s.Points[len(s.Points)-1]
		if large.Y >= small.Y {
			t.Errorf("%s: %0.0f at %s, not below %0.0f at %s", s.Name, large.Y, large.Label, small.Y, small.Label)
		}
	}
}
func TestFig12Smoke(t *testing.T) { runFig(t, Fig12, 3) }
func TestFig13Smoke(t *testing.T) {
	skipHeavyUnderRace(t)
	r := runFig(t, Fig13, 3)
	// Shape assertion: the RW's storage reads fall strictly as the remote
	// pool grows to absorb the working set.
	var prev uint64
	for i, s := range r.Series {
		key := strings.ReplaceAll(strings.TrimSuffix(s.Name, " GBeq"), " ", "") + "/rw0"
		snap, ok := r.Metrics[key]
		if !ok {
			t.Fatalf("no metrics captured for %s", key)
		}
		reads := snap.Counters["engine.page.storage_read"]
		if i > 0 && reads >= prev {
			t.Errorf("%s: %d storage reads, not below %d at the next smaller pool", key, reads, prev)
		}
		prev = reads
	}
}
func TestFig14Smoke(t *testing.T) { skipHeavyUnderRace(t); runFig(t, Fig14, 4) }
func TestFig15Smoke(t *testing.T) { runFig(t, Fig15, 4) }
