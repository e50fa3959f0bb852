package bench

import (
	"io"
	"runtime"
	"sync/atomic"
	"testing"

	"ityr/internal/apps/halo"
)

// TestFleetMembersIndependent runs the smoke fleet on four host threads:
// simulations that run side by side must share nothing, so every member
// reproduces a solo run's digest and event count. Under -race (`make race`)
// it is the detector's view of the one place this repository runs engines
// concurrently.
func TestFleetMembersIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	solo, err := halo.Run(fleetConfig)
	if err != nil {
		t.Fatal(err)
	}
	digests, events := fleetMembers(Smoke.FleetSims, 4, new(atomic.Uint64))
	for i := range digests {
		if digests[i] != solo.Digest() || events[i] != solo.Events {
			t.Errorf("member %d: %s, %d events; solo run: %s, %d events",
				i, digests[i], events[i], solo.Digest(), solo.Events)
		}
	}
	rep, err := FleetSuite(io.Discard, Smoke)
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Rows["fleet"]
	if row["digest_ok"] != 1 || row["total_events"] != float64(Smoke.FleetSims)*float64(solo.Events) {
		t.Errorf("fleet row %v, want digest_ok 1 and %d × %d events", row, Smoke.FleetSims, solo.Events)
	}
}
