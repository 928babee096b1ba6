package plan

import (
	"testing"
	"time"

	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/workload"
)

// TestPlanAbsentSeedCostsZero: a required tag with no occurrence makes the
// seeded scan an O(1) exit, so the planner prices it at 0 units and always
// picks it — even against RPL on a 1 × 1 scan — and the engine's timing
// feedback for that exit (units 0) leaves the measured seeded cost alone.
func TestPlanAbsentSeedCostsZero(t *testing.T) {
	spec := testSpec(t)
	run := testRun(t, spec, 9, 200)
	ix := index.Build(run)
	all := run.AllNodes()
	_, env := compile(t, spec, "_*.ghost._*")

	var tm Timings
	for i := 0; i < timingsWarmSamples; i++ {
		tm.Observe(Seeded, 1000, 50*time.Microsecond) // 50 ns/unit
	}
	before, warm := tm.UnitNanos(Seeded)
	if !warm {
		t.Fatal("seeded timings not warm after the warm-up samples")
	}
	pl := NewWithTimings(ix, &tm)
	for _, n := range [][2]int{{len(all), len(all)}, {1, 1}, {5, len(all)}} {
		dec := pl.Plan(env, n[0], n[1])
		if dec.Strategy != Seeded || dec.CostSeeded != 0 || dec.SeedTag != "ghost" || dec.SeedCount != 0 {
			t.Fatalf("Plan(%d, %d) on an absent seed = %+v, want seeded at cost 0", n[0], n[1], dec)
		}
	}

	// Replay the engine's calibration loop around one absent-seed scan.
	dec := pl.Plan(env, len(all), len(all))
	start := time.Now()
	var out [][2]int
	if err := AllPairsSeeded(env, ix, dec, all, all, pairsOf(&out)); err != nil {
		t.Fatal(err)
	}
	tm.Observe(Seeded, dec.UnitCost(Seeded), time.Since(start))
	if len(out) != 0 {
		t.Fatalf("absent seed produced %d pairs", len(out))
	}
	if after, _ := tm.UnitNanos(Seeded); after != before {
		t.Fatalf("UnitNanos(Seeded) moved from %v to %v after an absent-seed scan", before, after)
	}
	if got := tm.Samples(Seeded); got != timingsWarmSamples {
		t.Fatalf("absent-seed scan was observed: %d samples, want %d", got, timingsWarmSamples)
	}
}

// TestSeededAbsentSeedAllocs pins the O(1) exit: an absent seed is checked
// before any label is decoded, so the scan allocates the same (constant)
// amount over 1K- and 10K-node lists. The run is opened from its columnar
// encoding, the layout a durable catalog serves, where every label decode
// allocates.
func TestSeededAbsentSeedAllocs(t *testing.T) {
	d := workload.BioAID()
	derived, err := derive.Derive(d.Spec, derive.Options{Seed: 1, TargetEdges: 12000})
	if err != nil {
		t.Fatal(err)
	}
	data, err := derive.EncodeColumnar(derived)
	if err != nil {
		t.Fatal(err)
	}
	run, err := derive.OpenColumnar(d.Spec, data)
	if err != nil {
		t.Fatal(err)
	}
	all := run.AllNodes()
	if len(all) < 10000 {
		t.Fatalf("fixture run has %d nodes, want at least 10000", len(all))
	}
	ix := index.Build(run)
	_, env := compile(t, d.Spec, "_*.ghost._*")
	dec := New(ix).Plan(env, len(all), len(all))
	if dec.Strategy != Seeded || dec.SeedCount != 0 {
		t.Fatalf("plan = %+v, want seeded on an absent tag", dec)
	}
	emit := func(i, j int) { t.Fatalf("absent seed emitted (%d, %d)", i, j) }
	allocs := func(n int) float64 {
		l := all[:n]
		return testing.AllocsPerRun(20, func() {
			if err := AllPairsSeeded(env, ix, dec, l, l, emit); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if small != large {
		t.Fatalf("absent-seed scan allocates %v times over 1K nodes but %v over 10K", small, large)
	}
	if large != 0 {
		t.Fatalf("absent-seed scan allocates %v times, want none", large)
	}
}
