package provrpq

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// watchPairSet builds a set view of a pair list for union/equality checks.
func watchPairSet(pairs []Pair) map[Pair]bool {
	m := make(map[Pair]bool, len(pairs))
	for _, p := range pairs {
		m[p] = true
	}
	return m
}

// TestStandingQueryDeltaEqualsFullEvaluation is the differential property
// behind /v1/watch: for randomized base graphs and randomized growth
// batches, a snapshot taken at registration plus the DeltaPairs of every
// subsequent append event must equal a full re-evaluation of the final run
// — for every safe query, with no pair missing, duplicated across deltas,
// or retracted.
func TestStandingQueryDeltaEqualsFullEvaluation(t *testing.T) {
	spec := introSpec(t)
	safeTested := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		full, err := spec.Derive(DeriveOptions{Seed: seed, TargetEdges: 80 + rng.Intn(160)})
		if err != nil {
			t.Fatal(err)
		}
		fullJSON, err := EncodeRun(full)
		if err != nil {
			t.Fatal(err)
		}
		n := full.NumNodes()
		cuts := []int{1 + rng.Intn(n/2+1)}
		for cuts[len(cuts)-1] < n {
			next := cuts[len(cuts)-1] + 1 + rng.Intn(n/4+1)
			if next > n {
				next = n
			}
			cuts = append(cuts, next)
		}
		baseJSON, batchJSONs := splitEncodedRun(t, fullJSON, cuts)

		cat := NewCatalog(CatalogOptions{})
		if err := cat.RegisterSpec("wf", spec); err != nil {
			t.Fatal(err)
		}
		base, err := DecodeRun(spec, baseJSON)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddRun("r1", "wf", base); err != nil {
			t.Fatal(err)
		}

		var events []AppendEvent
		cancel := cat.SubscribeAppends(func(ev AppendEvent) { events = append(events, ev) })
		snapRun, snapVer, ok := cat.RunAt("r1")
		if !ok || snapVer != 0 {
			t.Fatalf("RunAt = (%v, %d, %v)", snapRun, snapVer, ok)
		}

		for bi, bj := range batchJSONs {
			b, err := DecodeBatch(spec, bj)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, bi, err)
			}
			if _, err := cat.AppendEdges("r1", b); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, bi, err)
			}
		}
		cancel()
		if len(events) != len(batchJSONs) {
			t.Fatalf("seed %d: %d events for %d batches", seed, len(events), len(batchJSONs))
		}
		for i, ev := range events {
			if ev.RunName != "r1" || ev.Version != i+1 {
				t.Fatalf("seed %d event %d: name %q version %d", seed, i, ev.RunName, ev.Version)
			}
			if i > 0 && int(ev.FirstNewNode) != events[i-1].Run.NumNodes() {
				t.Fatalf("seed %d event %d: FirstNewNode %d, prev run had %d nodes",
					seed, i, ev.FirstNewNode, events[i-1].Run.NumNodes())
			}
		}

		snapEngine := NewEngine(snapRun)
		finalEngine, err := cat.Engine("r1")
		if err != nil {
			t.Fatal(err)
		}
		for _, qs := range appendQueries {
			q := MustParseQuery(qs)
			safe, err := cat.IsSafeQuery(spec, q)
			if err != nil {
				t.Fatal(err)
			}
			if !safe {
				for _, ev := range events {
					if _, err := cat.DeltaPairs(ev, q); !errors.Is(err, ErrUnsafeWatch) {
						t.Fatalf("DeltaPairs(unsafe %s) = %v, want ErrUnsafeWatch", qs, err)
					}
				}
				continue
			}
			safeTested++
			snap, err := snapEngine.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			union := watchPairSet(snap)
			for i, ev := range events {
				delta, err := cat.DeltaPairs(ev, q)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range delta {
					if union[p] {
						t.Fatalf("seed %d query %s: pair %v duplicated by delta %d", seed, qs, p, i)
					}
					union[p] = true
				}
			}
			want, err := finalEngine.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			wantSet := watchPairSet(want)
			if len(union) != len(wantSet) {
				t.Fatalf("seed %d query %s: snapshot+deltas has %d pairs, full evaluation %d",
					seed, qs, len(union), len(wantSet))
			}
			for p := range wantSet {
				if !union[p] {
					t.Fatalf("seed %d query %s: pair %v missing from snapshot+deltas", seed, qs, p)
				}
			}
		}
	}
	if safeTested == 0 {
		t.Fatal("no safe query exercised; fixture queries all unsafe")
	}
}

// TestDeltaPairsEdgesOnlyBatchIsEmpty: a batch creating no nodes cannot
// change any safe-query answer (labels are assigned at node creation and
// never recomputed), so its delta must be empty and its pairs sorted.
func TestDeltaPairsEdgesOnlyBatchIsEmpty(t *testing.T) {
	spec := introSpec(t)
	full, err := spec.Derive(DeriveOptions{Seed: 3, TargetEdges: 200})
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(CatalogOptions{})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r1", "wf", full); err != nil {
		t.Fatal(err)
	}
	var got []AppendEvent
	cancel := cat.SubscribeAppends(func(ev AppendEvent) { got = append(got, ev) })
	defer cancel()
	b := appendEdgesBatch(t, spec, full, 8)
	if _, err := cat.AppendEdges("r1", b); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].NewNodes != 0 || got[0].NewEdges != 8 {
		t.Fatalf("events = %+v, want one edges-only event", got)
	}
	for _, qs := range appendQueries {
		q := MustParseQuery(qs)
		if safe, _ := cat.IsSafeQuery(spec, q); !safe {
			continue
		}
		delta, err := cat.DeltaPairs(got[0], q)
		if err != nil {
			t.Fatal(err)
		}
		if len(delta) != 0 {
			t.Fatalf("query %s: edges-only batch produced %d delta pairs", qs, len(delta))
		}
	}
}

// TestDeltaPairsSorted: DeltaPairs promises (From, To)-sorted output — the
// SSE layer streams it verbatim.
func TestDeltaPairsSorted(t *testing.T) {
	spec := introSpec(t)
	full, err := spec.Derive(DeriveOptions{Seed: 7, TargetEdges: 300})
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := EncodeRun(full)
	if err != nil {
		t.Fatal(err)
	}
	n := full.NumNodes()
	baseJSON, batchJSONs := splitEncodedRun(t, fullJSON, []int{n / 2, n})
	cat := NewCatalog(CatalogOptions{})
	if err := cat.RegisterSpec("wf", spec); err != nil {
		t.Fatal(err)
	}
	base, err := DecodeRun(spec, baseJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r1", "wf", base); err != nil {
		t.Fatal(err)
	}
	var ev AppendEvent
	cancel := cat.SubscribeAppends(func(e AppendEvent) { ev = e })
	defer cancel()
	b, err := DecodeBatch(spec, batchJSONs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AppendEdges("r1", b); err != nil {
		t.Fatal(err)
	}
	checked := false
	for _, qs := range appendQueries {
		q := MustParseQuery(qs)
		if safe, _ := cat.IsSafeQuery(spec, q); !safe {
			continue
		}
		delta, err := cat.DeltaPairs(ev, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(delta, func(i, j int) bool {
			if delta[i].From != delta[j].From {
				return delta[i].From < delta[j].From
			}
			return delta[i].To < delta[j].To
		}) {
			t.Fatalf("query %s: delta not sorted: %v", qs, delta)
		}
		if len(delta) > 0 {
			checked = true
		}
	}
	if !checked {
		t.Skip("no safe query produced a non-empty delta for this fixture")
	}
}

// deltaShapes are standing queries covering each way DeltaPairs can run
// through the planner on the intro fixture.
var deltaShapes = []struct {
	name, query string
	// check asserts the shape on the plan of a full scan of the base run
	// (first) and of the final run.
	check func(base, final *PlanReport) bool
}{
	// A required tag that never occurs: the seeded O(1) exit.
	{"absent seed", "_*.ghost._*", func(b, f *PlanReport) bool {
		return b.Strategy == StrategySeeded && b.SeedCount == 0 && f.Strategy == StrategySeeded && f.SeedCount == 0
	}},
	// A required tag present in the base, once: seeded candidate joins.
	{"rare seed", "_*.Analysis._*", func(b, f *PlanReport) bool {
		return b.SeedTag == "Analysis" && b.SeedCount == 1 && f.SeedCount == 1
	}},
	// A seed absent until the batch that creates it.
	{"late seed", "_*.s._*.publish", func(b, f *PlanReport) bool {
		return b.SeedTag == "publish" && b.SeedCount == 0 && f.SeedCount == 1
	}},
	// No required tag: no seed, a filtered or nested-loop scan.
	{"tagless", "_*", func(b, f *PlanReport) bool {
		return b.SeedTag == "" && f.SeedTag == "" && b.Strategy != StrategySeeded
	}},
}

// TestDeltaPairsEveryShape extends the snapshot ∪ deltas differential to
// every delta shape, at every version rather than only the last, and over
// both engine paths: each delta is computed once while the catalog's
// engine still serves the event's run (shared with read-after-write) and
// again after the run has grown past it (a lagging event, evaluated on a
// fresh engine over ev.Run). Both must agree.
func TestDeltaPairsEveryShape(t *testing.T) {
	spec := introSpec(t)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		full, err := spec.Derive(DeriveOptions{Seed: seed, TargetEdges: 120 + rng.Intn(120)})
		if err != nil {
			t.Fatal(err)
		}
		fullJSON, err := EncodeRun(full)
		if err != nil {
			t.Fatal(err)
		}
		n := full.NumNodes()
		cuts := []int{n / 4}
		for cuts[len(cuts)-1] < n {
			cuts = append(cuts, min(n, cuts[len(cuts)-1]+1+rng.Intn(n/6+1)))
		}
		baseJSON, batchJSONs := splitEncodedRun(t, fullJSON, cuts)
		cat := NewCatalog(CatalogOptions{})
		if err := cat.RegisterSpec("wf", spec); err != nil {
			t.Fatal(err)
		}
		base, err := DecodeRun(spec, baseJSON)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddRun("r1", "wf", base); err != nil {
			t.Fatal(err)
		}
		var events []AppendEvent
		cancel := cat.SubscribeAppends(func(ev AppendEvent) { events = append(events, ev) })

		// Live deltas: computed right after each append, while the
		// catalog's engine serves the event's run.
		live := make([][][]Pair, len(deltaShapes))
		for bi, bj := range batchJSONs {
			b, err := DecodeBatch(spec, bj)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, bi, err)
			}
			if _, err := cat.AppendEdges("r1", b); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, bi, err)
			}
			ev := events[len(events)-1]
			if eng, err := cat.Engine("r1"); err != nil || eng.Run() != ev.Run {
				t.Fatalf("seed %d batch %d: catalog engine does not serve the event's run", seed, bi)
			}
			for si, sh := range deltaShapes {
				delta, err := cat.DeltaPairs(ev, MustParseQuery(sh.query))
				if err != nil {
					t.Fatalf("seed %d batch %d %s: %v", seed, bi, sh.name, err)
				}
				live[si] = append(live[si], delta)
			}
		}
		cancel()
		cur, _ := cat.Run("r1")

		for si, sh := range deltaShapes {
			q := MustParseQuery(sh.query)
			baseRep, err := NewEngine(base).Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			finalRep, err := NewEngine(cur).Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			if !baseRep.Safe || !sh.check(baseRep, finalRep) {
				t.Fatalf("seed %d %s: fixture lost its shape: base plan %+v, final plan %+v", seed, sh.name, baseRep, finalRep)
			}
			snap, err := NewEngine(base).Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			union := watchPairSet(snap)
			for i, ev := range events {
				if i < len(events)-1 && ev.Run == cur {
					t.Fatalf("seed %d event %d: expected a lagging event", seed, i)
				}
				delta, err := cat.DeltaPairs(ev, q)
				if err != nil {
					t.Fatal(err)
				}
				if err := samePairs(delta, live[si][i]); err != nil {
					t.Fatalf("seed %d %s event %d: lagging delta differs from live delta: %v", seed, sh.name, i, err)
				}
				for _, p := range delta {
					if union[p] {
						t.Fatalf("seed %d %s: pair %v duplicated by delta %d", seed, sh.name, p, i)
					}
					union[p] = true
				}
				want, err := NewEngine(ev.Run).Evaluate(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) != len(union) {
					t.Fatalf("seed %d %s version %d: snapshot+deltas has %d pairs, full evaluation %d",
						seed, sh.name, ev.Version, len(union), len(want))
				}
				for _, p := range want {
					if !union[p] {
						t.Fatalf("seed %d %s version %d: pair %v missing from snapshot+deltas", seed, sh.name, ev.Version, p)
					}
				}
			}
		}
	}
}
