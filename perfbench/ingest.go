package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"time"

	"provrpq"
)

// The ingest workload: a durable BioAID run with a 100K-node base grows by
// 5-node batches cut from a continuation of the same derivation, appended
// open-loop at a fixed rate on one connection, each followed by a
// read-after-write evaluate of the standing query; the other connection
// holds that standing query open over SSE.
const (
	ingestBaseNodes  = 100_000
	ingestBatchNodes = 5
	// ingestRate is the append rate in batches per second: one the parent
	// sustains without a growing watcher backlog. Each delta costs 300-450
	// ms of server CPU at this run size; at 2 batches per second the
	// watcher fell behind whenever the hypervisor stole a third of the
	// CPU, and its lag tripled.
	ingestRate = 1
	// ingestDataSeed fixes the derived run and the standing query, so the
	// ingest inputs do not vary with the seed argument: server CPU per
	// batch differed by up to 25% between runs derived from different
	// seeds, and the watch lag by up to 35% between standing queries.
	ingestDataSeed = 1
)

type ingestData struct {
	dir      string
	ds       *dataset
	query    string
	base     *provrpq.Run
	baseJSON []byte
	batches  [][]byte // JSON growth batches, in append order
	// Reference answers of the standing query at every version v
	// (v = 0 is the base, v = i+1 follows batches[i]).
	totals []int
	pages  [][]pairName
	sets   []map[pairName]bool // full results
}

// splitRun cuts a derived run into a base of baseNodes nodes and
// batchNodes-node growth batches; each edge travels with the segment of
// its higher endpoint, so every batch references only nodes that exist
// once it is applied. Nodes past the last whole batch are dropped.
func splitRun(run *provrpq.Run, baseNodes, batchNodes, batches int) (base []byte, out [][]byte, err error) {
	data, err := provrpq.EncodeRun(run)
	if err != nil {
		return nil, nil, err
	}
	var full struct {
		Nodes []json.RawMessage `json:"nodes"`
		Edges []provrpq.Edge    `json:"edges"`
	}
	if err := json.Unmarshal(data, &full); err != nil {
		return nil, nil, err
	}
	if need := baseNodes + batchNodes*batches; len(full.Nodes) < need {
		return nil, nil, fmt.Errorf("derived run has %d nodes, want %d", len(full.Nodes), need)
	}
	type segment struct {
		Nodes []json.RawMessage `json:"nodes"`
		Edges []provrpq.Edge    `json:"edges"`
	}
	segs := make([]segment, batches+1)
	segs[0].Nodes = full.Nodes[:baseNodes]
	for i := 1; i <= batches; i++ {
		lo := baseNodes + (i-1)*batchNodes
		segs[i].Nodes = full.Nodes[lo : lo+batchNodes]
	}
	for _, e := range full.Edges {
		hi := int(max(e.From, e.To))
		seg := 0
		if hi >= baseNodes {
			seg = 1 + (hi-baseNodes)/batchNodes
		}
		if seg <= batches {
			segs[seg].Edges = append(segs[seg].Edges, e)
		}
	}
	for i := range segs {
		b, err := json.Marshal(segs[i])
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			base = b
		} else {
			out = append(out, b)
		}
	}
	return base, out, nil
}

// prepareIngest derives the run, stores its base, and replays every batch
// in-process for the reference answers at each version.
func prepareIngest(cfg config, batches int) (*ingestData, error) {
	sets, err := datasets()
	if err != nil {
		return nil, err
	}
	ds := sets[0] // BioAID
	r := rand.New(rand.NewSource(ingestDataSeed))
	id := &ingestData{dir: filepath.Join(cfg.work, "ingest-data"), ds: ds, query: ds.d.SafeIFQ(r, 2, false)}
	run, err := ds.derive(deriveSeed(ingestDataSeed, 0), ingestBaseNodes+ingestBatchNodes*batches+1000)
	if err != nil {
		return nil, err
	}
	baseJSON, batchJSON, err := splitRun(run, ingestBaseNodes, ingestBatchNodes, batches)
	if err != nil {
		return nil, err
	}
	id.baseJSON, id.batches = baseJSON, batchJSON
	if id.base, err = provrpq.DecodeRun(ds.spec, baseJSON); err != nil {
		return nil, err
	}
	if err := storeRun(id.dir, ds, id.base); err != nil {
		return nil, err
	}

	cat := provrpq.NewCatalog(provrpq.CatalogOptions{})
	if err := cat.RegisterSpec(ds.specName, ds.spec); err != nil {
		return nil, err
	}
	if err := cat.AddRun(ds.runName, ds.specName, id.base); err != nil {
		return nil, err
	}
	q := provrpq.MustParseQuery(id.query)
	for v := 0; v <= len(id.batches); v++ {
		if v > 0 {
			b, err := provrpq.DecodeBatch(ds.spec, id.batches[v-1])
			if err != nil {
				return nil, err
			}
			if _, err := cat.AppendEdges(ds.runName, b); err != nil {
				return nil, fmt.Errorf("reference append %d: %w", v, err)
			}
		}
		eng, err := cat.Engine(ds.runName)
		if err != nil {
			return nil, err
		}
		if v == 0 {
			if err := mustBeSafe(eng, []string{id.query}); err != nil {
				return nil, err
			}
		}
		pairs, err := eng.Evaluate(q)
		if err != nil {
			return nil, err
		}
		id.totals = append(id.totals, len(pairs))
		id.pages = append(id.pages, pageOf(eng.Run(), pairs))
		set := make(map[pairName]bool, len(pairs))
		for _, p := range pairs {
			set[pairName{eng.Run().NodeName(p.From), eng.Run().NodeName(p.To)}] = true
		}
		id.sets = append(id.sets, set)
	}
	return id, nil
}

// readAfterWrite evaluates the standing query and checks it against the
// reference at version v.
func (id *ingestData) readAfterWrite(c *client, v int) (wrong bool, err error) {
	var got evaluateAnswer
	body := encode(map[string]any{"run": id.ds.runName, "query": id.query, "limit": pageLimit})
	if err := c.post("/v1/evaluate", body, &got); err != nil {
		return false, err
	}
	return !checkEvaluate(got, id.totals[v], id.pages[v]), nil
}

// watchStream is one open standing query.
type watchStream struct {
	events <-chan sseEvent
	cancel context.CancelFunc
	wait   func()
	pairs  map[pairName]bool // snapshot ∪ deltas so far
}

func (w *watchStream) close() {
	w.cancel()
	w.wait()
}

// openWatch registers the standing query and waits for its snapshot,
// which must match the reference at version 0.
func (id *ingestData) openWatch(c *client) (*watchStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	events, wait, err := c.watch(ctx, encode(map[string]string{"run": id.ds.runName, "query": id.query}))
	if err != nil {
		cancel()
		return nil, err
	}
	w := &watchStream{events: events, cancel: cancel, wait: wait, pairs: map[pairName]bool{}}
	var snap struct {
		Version int        `json:"version"`
		Total   int        `json:"total"`
		Pairs   []pairName `json:"pairs"`
	}
	select {
	case ev, ok := <-events:
		if !ok || ev.name != "snapshot" {
			w.close()
			return nil, fmt.Errorf("watch: want a snapshot event, got %q", ev.name)
		}
		if err := json.Unmarshal(ev.data, &snap); err != nil {
			w.close()
			return nil, err
		}
	case <-time.After(clientDeadline):
		w.close()
		return nil, fmt.Errorf("watch: no snapshot within %v", clientDeadline)
	}
	for _, p := range snap.Pairs {
		w.pairs[p] = true
	}
	if snap.Version != 0 || snap.Total != id.totals[0] || !sameSet(w.pairs, id.sets[0]) {
		w.close()
		return nil, fmt.Errorf("watch: snapshot at version %d with %d pairs does not match the reference (%d pairs)", snap.Version, snap.Total, id.totals[0])
	}
	return w, nil
}

func sameSet(a, b map[pairName]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if !b[p] {
			return false
		}
	}
	return true
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// deltaEvent is the part of a watch delta the check reads.
type deltaEvent struct {
	Version int        `json:"version"`
	Count   int        `json:"count"`
	Pairs   []pairName `json:"pairs"`
}

// collect reads the delta events of versions 1..v, acked at the given
// times, and returns their tally and each one's lag from its ack. The
// watch stream counts as one request, failed if it ends early or lagged;
// each acked version's delta is one more, failed if it never arrives
// within the client deadline, wrong if it is not the next version. Once
// every delta has arrived, snapshot ∪ deltas must equal want, the
// reference result at version v.
func (w *watchStream) collect(v int, acked []time.Time, want map[pairName]bool) (tally, []float64, error) {
	t := tally{Attempted: 1 + v}
	var lag []float64
	seen := 0
	timeout := time.After(clientDeadline)
wait:
	for seen < v {
		select {
		case ev, ok := <-w.events:
			if !ok || ev.name != "delta" {
				t.Failed++ // closed early, or "lagged", which is terminal
				break wait
			}
			var de deltaEvent
			if err := json.Unmarshal(ev.data, &de); err != nil {
				return tally{}, nil, err
			}
			seen++
			if de.Version != seen || de.Count != len(de.Pairs) {
				t.Failed++
				t.Wrong++
				continue
			}
			lag = append(lag, ms(ev.at.Sub(acked[de.Version])))
			for _, p := range de.Pairs {
				w.pairs[p] = true
			}
		case <-timeout:
			break wait
		}
	}
	t.Failed += v - seen // never arrived
	if seen == v && t.Wrong == 0 && !sameSet(w.pairs, want) {
		t.Failed++
		t.Wrong++
	}
	return t, lag, nil
}

func runIngest(cfg config) (*report, error) {
	n := int(ingestRate * cfg.seconds.Seconds())
	id, err := prepareIngest(cfg, n)
	if err != nil {
		return nil, err
	}
	var w *watchStream
	probe := func(c *client) error {
		wrong, err := id.readAfterWrite(c, 0)
		if err != nil {
			return err
		}
		if wrong {
			return fmt.Errorf("wrong read at version 0")
		}
		w, err = id.openWatch(c)
		return err
	}
	release := func() {
		w.close()
		w = nil
	}
	d, c, setup, err := setUp(cfg, id.dir, probe, release)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	defer c.close()
	defer w.close()

	bytes0, err := dirBytes(id.dir)
	if err != nil {
		return nil, err
	}
	rssSamples := d.sampleRSS()
	defer rssSamples.finish()
	var appends, reads loopStats
	acked := make([]time.Time, n+1) // by version
	var userBytes int64
	v := 0
	interval := time.Duration(float64(time.Second) / ingestRate)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		sent := time.Now()
		if late := sent.Sub(due); late > lateAfter {
			appends.Late++
			appends.maxLate = max(appends.maxLate, late)
		}
		var ack struct {
			Version int `json:"version"`
		}
		path := fmt.Sprintf("/v1/runs/%s/edges?expected_version=%d", id.ds.runName, v)
		err := c.post(path, id.batches[i], &ack)
		done := time.Now()
		wrong := err == nil && ack.Version != v+1
		appends.record(wrong, err, due, sent, done)
		if err != nil || wrong {
			break // later batches would not apply to the version they expect
		}
		v = ack.Version
		acked[v] = done
		userBytes += int64(len(id.batches[i]))
		wrong, err = id.readAfterWrite(c, v)
		reads.record(wrong, err, done, done, time.Now())
	}

	deltas, lag, err := w.collect(v, acked, id.sets[v])
	if err != nil {
		return nil, err
	}
	bytes1, err := dirBytes(id.dir)
	if err != nil {
		return nil, err
	}
	rss, err := rssSamples.finish()
	if err != nil {
		return nil, err
	}

	rep := &report{}
	rep.add(appends.tally)
	rep.add(reads.tally)
	rep.add(deltas)
	lag50 := quantile(lag, 0.5)
	rep.set("setup_s", setup, "s")
	rep.set("rss_peak_mb", rss, "MB")
	rep.set("latency_ms", lag50, "ms")
	rep.note("fail_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	rep.note("append.p50_ms", quantile(appends.lat, 0.5), "ms")
	rep.note("append.p90_ms", quantile(appends.lat, 0.9), "ms")
	rep.note("append.max_late_ms", ms(appends.maxLate), "ms")
	rep.note("read_after_write.p50_ms", quantile(reads.svc, 0.5), "ms")
	rep.note("watch.lag_p50_ms", lag50, "ms")
	rep.note("watch.lag_p90_ms", quantile(lag, 0.9), "ms")
	rep.note("store.bytes_per_user_byte", ratio(float64(bytes1-bytes0), float64(userBytes)), "ratio")
	return rep, nil
}
