package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"provrpq"
	"provrpq/internal/server"
)

// smallRuns derives one small run per dataset.
func smallRuns(t *testing.T, seed int64, edges int) ([]*dataset, []*provrpq.Run) {
	t.Helper()
	sets, err := datasets()
	if err != nil {
		t.Fatal(err)
	}
	var runs []*provrpq.Run
	for i, ds := range sets {
		run, err := ds.derive(deriveSeed(seed, i), edges)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	return sets, runs
}

// pointSequence draws a point request sequence the way preparePoint does.
func pointSequence(t *testing.T, seed int64) []pointReq {
	sets, runs := smallRuns(t, seed, 500)
	reqs := make([]pointReq, 256)
	pickDatasets(reqs, seed, len(sets))
	for i, ds := range sets {
		r := rand.New(rand.NewSource(seed*31 + int64(i)))
		drawRequests(reqs, i, safeQueries(ds, r, 1), runs[i].NumNodes(), r)
	}
	return reqs
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	if a, b := pointSequence(t, 7), pointSequence(t, 7); !reflect.DeepEqual(a, b) {
		t.Fatal("point: one seed drew two request sequences")
	}
	if a, b := pointSequence(t, 7), pointSequence(t, 8); reflect.DeepEqual(a, b) {
		t.Fatal("point: two seeds drew the same request sequence")
	}

	sets, err := datasets()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := analyticSuite(sets), analyticSuite(sets); !reflect.DeepEqual(a, b) {
		t.Fatal("analytic: the suite is not fixed")
	}

	split := func(seed int64) ([]byte, [][]byte) {
		_, runs := smallRuns(t, seed, 2000)
		base, batches, err := splitRun(runs[0], 1000, 5, 190)
		if err != nil {
			t.Fatal(err)
		}
		return base, batches
	}
	// The ingest run is derived with a fixed seed; cutting it must depend
	// on the run alone.
	base1, batches1 := split(3)
	base2, batches2 := split(3)
	if !bytes.Equal(base1, base2) || !reflect.DeepEqual(batches1, batches2) {
		t.Fatal("ingest: one run cut into two different batch streams")
	}
	if base3, batches3 := split(4); bytes.Equal(base1, base3) && reflect.DeepEqual(batches1, batches3) {
		t.Fatal("ingest: two runs cut into the same batch stream")
	}
}

func TestSplitRunBatchesApplyInOrder(t *testing.T) {
	sets, runs := smallRuns(t, 5, 400)
	base, batches, err := splitRun(runs[0], 200, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	spec := sets[0].spec
	run, err := provrpq.DecodeRun(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{})
	if err := cat.RegisterSpec("s", spec); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRun("r", "s", run); err != nil {
		t.Fatal(err)
	}
	for i, data := range batches {
		b, err := provrpq.DecodeBatch(spec, data)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cat.AppendEdgesCAS("r", b, i)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if res.Version != i+1 || b.NumNodes() != 5 {
			t.Fatalf("batch %d: version %d with %d nodes", i, res.Version, b.NumNodes())
		}
	}
	if grown, _ := cat.Run("r"); grown.NumNodes() != 300 {
		t.Fatalf("grown run has %d nodes, want 300", grown.NumNodes())
	}
}

// liveServer serves small runs of both datasets in-process.
func liveServer(t *testing.T) ([]*dataset, []*provrpq.Run, *client) {
	t.Helper()
	sets, runs := smallRuns(t, 9, 300)
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{})
	for i, ds := range sets {
		if err := cat.RegisterSpec(ds.specName, ds.spec); err != nil {
			t.Fatal(err)
		}
		if err := cat.AddRun(ds.runName, ds.specName, runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(server.New(cat, server.Options{}).Handler())
	t.Cleanup(srv.Close)
	c := newClient(strings.TrimPrefix(srv.URL, "http://"))
	t.Cleanup(c.close)
	return sets, runs, c
}

func TestCheckerRejectsCorruptedAnswers(t *testing.T) {
	sets, runs, c := liveServer(t)
	ds, run := sets[0], runs[0]
	eng := provrpq.NewEngine(run)

	// Pairwise: the reference answer passes, the flipped one fails.
	q := ds.d.StarQuery()
	pr := pointReq{query: q, from: 0, to: provrpq.NodeID(run.NumNodes() - 1)}
	var err error
	if pr.match, err = eng.Pairwise(provrpq.MustParseQuery(q), pr.from, pr.to); err != nil {
		t.Fatal(err)
	}
	pr.body = encode(map[string]string{"run": ds.runName, "query": q, "from": run.NodeName(pr.from), "to": run.NodeName(pr.to)})
	if wrong, err := pr.ask(c); err != nil || wrong {
		t.Fatalf("reference pairwise answer rejected: wrong=%v err=%v", wrong, err)
	}
	pr.match = !pr.match
	if wrong, err := pr.ask(c); err != nil || !wrong {
		t.Fatalf("corrupted pairwise answer accepted: wrong=%v err=%v", wrong, err)
	}

	// Evaluate: total and first page are both checked.
	query := "_*"
	pairs, err := eng.Evaluate(provrpq.MustParseQuery(query))
	if err != nil {
		t.Fatal(err)
	}
	sq := suiteQuery{query: query, total: len(pairs), page: pageOf(run, pairs),
		body: encode(map[string]any{"run": ds.runName, "query": query, "limit": pageLimit})}
	if wrong, err := sq.ask(c); err != nil || wrong {
		t.Fatalf("reference evaluate answer rejected: wrong=%v err=%v", wrong, err)
	}
	sq.total++
	if wrong, _ := sq.ask(c); !wrong {
		t.Fatal("evaluate answer with a wrong total accepted")
	}
	sq.total--
	sq.page[len(sq.page)-1], sq.page[0] = sq.page[0], sq.page[len(sq.page)-1]
	if wrong, _ := sq.ask(c); !wrong {
		t.Fatal("evaluate answer with a reordered page accepted")
	}

	// Standing query: snapshot ∪ deltas must equal the reference set.
	ref := map[pairName]bool{{"a", "b"}: true, {"b", "c"}: true}
	if !sameSet(map[pairName]bool{{"a", "b"}: true, {"b", "c"}: true}, ref) {
		t.Fatal("equal pair sets reported different")
	}
	if sameSet(map[pairName]bool{{"a", "b"}: true, {"c", "b"}: true}, ref) {
		t.Fatal("a corrupted pair set matched the reference")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "parse", Parent: 0, Start: 10, End: 30},
		{Name: "eval", Parent: 0, Start: 40, End: 90},
		{Name: "decode", Parent: 2, Start: 50, End: 60},
	}
	got := selfTimes(tr.spans)
	want := map[string]int64{"request": 30, "parse": 20, "eval": 40, "decode": 10}
	for name, self := range want {
		if lt := got[name]; lt == nil || int64(lt.Self) != self || lt.Count != 1 {
			t.Errorf("%s: got %+v, want self %d", name, lt, self)
		}
	}
}

func TestInterleavedPairsEachRequest(t *testing.T) {
	var order []string
	overhead, err := interleaved(3, func(j int, on bool) (time.Duration, error) {
		order = append(order, fmt.Sprint(j, on))
		if on {
			return time.Duration(10 + j), nil
		}
		return 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0 false", "0 true", "1 true", "1 false", "2 false", "2 true"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if overhead != 1 {
		t.Fatalf("overhead %v, want the median difference 1ns", overhead)
	}
}

// TestCollectDeltas checks the watch accounting: a lagged or short stream
// counts its missing deltas as failed, not wrong, and skips the union
// check; a complete stream is checked against the result at the version
// reached.
func TestCollectDeltas(t *testing.T) {
	delta := func(v int, pairs ...pairName) sseEvent {
		data := encode(deltaEvent{Version: v, Count: len(pairs), Pairs: pairs})
		return sseEvent{name: "delta", data: data, at: time.Now()}
	}
	a, b, c := pairName{"a", "b"}, pairName{"b", "c"}, pairName{"c", "d"}
	acked := []time.Time{{}, time.Now(), time.Now(), time.Now()}
	cases := []struct {
		name                   string
		events                 []sseEvent
		v                      int
		want                   map[pairName]bool
		attempted, failed, bad int
		lags                   int
	}{
		{"complete", []sseEvent{delta(1, b), delta(2, c)}, 2, map[pairName]bool{a: true, b: true, c: true}, 3, 0, 0, 2},
		{"union differs", []sseEvent{delta(1, b), delta(2)}, 2, map[pairName]bool{a: true, b: true, c: true}, 3, 1, 1, 2},
		{"lagged", []sseEvent{delta(1, b), {name: "lagged"}}, 3, map[pairName]bool{}, 4, 3, 0, 1},
		{"closed early", []sseEvent{delta(1, b)}, 2, map[pairName]bool{}, 3, 2, 0, 1},
		{"out of order", []sseEvent{delta(2, b), delta(1, c)}, 2, map[pairName]bool{a: true, b: true, c: true}, 3, 2, 2, 0},
	}
	for _, tc := range cases {
		events := make(chan sseEvent, len(tc.events))
		for _, ev := range tc.events {
			events <- ev
		}
		close(events)
		w := &watchStream{events: events, pairs: map[pairName]bool{a: true}}
		got, lag, err := w.collect(tc.v, acked, tc.want)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Attempted != tc.attempted || got.Failed != tc.failed || got.Wrong != tc.bad {
			t.Errorf("%s: attempted %d, failed %d, wrong %d; want %d, %d, %d",
				tc.name, got.Attempted, got.Failed, got.Wrong, tc.attempted, tc.failed, tc.bad)
		}
		if len(lag) != tc.lags {
			t.Errorf("%s: %d lag samples, want %d", tc.name, len(lag), tc.lags)
		}
	}
}
