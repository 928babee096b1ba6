package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"provrpq"
	"provrpq/internal/derive"
	"provrpq/internal/index"
	"provrpq/internal/plan"
	"provrpq/internal/store"
)

// layerMetrics lists every per-layer metric a traced run reports, with its
// unit. A layer the workload does not exercise reports 0. METRICS.md
// names, for each, the end-to-end metric and workload it should move.
var layerMetrics = []struct{ name, unit string }{
	{"server.overhead_us", "us"},
	{"server.encode_ms", "ms"},
	{"server.decode_batch_ms", "ms"},
	{"automata.parse_us", "us"},
	{"plancache.hit_ratio", "ratio"},
	{"core.compile_ms", "ms"},
	{"catalog.engine_us", "us"},
	{"catalog.append_self_ms", "ms"},
	{"label.pairwise_ns", "ns"},
	{"label.materialize_ms", "ms"},
	{"derive.grow_ms", "ms"},
	{"derive.heap_bytes_per_node", "B"},
	{"index.build_ms", "ms"},
	{"plan.stats_build_ms", "ms"},
	{"plan.regret_p50", "ratio"},
	{"plan.regret_max", "ratio"},
	{"plan.est_units_per_pair", "count"},
	{"scan.rpl_ms", "ms"},
	{"scan.optrpl_ms", "ms"},
	{"scan.seeded_ms", "ms"},
	{"core.decompose_ms", "ms"},
	{"core.relational_nodes", "count"},
	{"parallel.busy_ratio", "ratio"},
	{"store.append_ms", "ms"},
	{"store.commits_per_batch", "count"},
	{"watch.delta_ms", "ms"},
	{"watch.decodes_per_delta_pair", "count"},
	{"trace.overhead_us", "us"},
}

// layerReport turns measured values into a report carrying every
// per-layer metric, plus each span name's count and self time.
func layerReport(cfg config, workload string, t tally, vals map[string]float64, tr *tracer) (*report, error) {
	rep := &report{tally: t}
	for _, m := range layerMetrics {
		rep.set(m.name, vals[m.name], m.unit) // 0 when not exercised
	}
	for name, lt := range selfTimes(tr.spans) {
		rep.note(name+".count", float64(lt.Count), "count")
		rep.note(name+".self_ms", ms(lt.Self), "ms")
	}
	path := filepath.Join(cfg.traces, fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed))
	return rep, tr.write(path)
}

// medianOf is the median duration of the named spans, in the given unit.
func medianOf(spans []span, name string, unit time.Duration) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.dur())/float64(unit))
		}
	}
	return median(xs)
}

// meanOf is the mean duration of the named spans, in the given unit.
func meanOf(spans []span, name string, unit time.Duration) float64 {
	var sum time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == name {
			sum += s.dur()
			n++
		}
	}
	return ratio(float64(sum)/float64(unit), float64(n))
}

// heapInUse reports the live heap after a collection.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// openCatalog opens a data directory the way rpqd does and reports the
// heap it added per node.
func openCatalog(dir string) (*provrpq.Catalog, float64, error) {
	before := heapInUse()
	st, err := provrpq.OpenStore(dir)
	if err != nil {
		return nil, 0, err
	}
	cat, err := provrpq.NewCatalogFromStore(st, provrpq.CatalogOptions{PlanCache: provrpq.NewPlanCache(0)})
	if err != nil {
		return nil, 0, err
	}
	nodes := 0
	for _, name := range cat.RunNames() {
		r, _ := cat.Run(name)
		nodes += r.NumNodes()
	}
	after := heapInUse()
	return cat, ratio(float64(after)-float64(before), float64(nodes)), nil
}

// planLookup resolves q's compiled plan on eng through IsSafe inside a
// span named after what the program did: core.compile when the call
// compiled, that is raised the catalog's plan-cache misses, and
// engine.plan_lookup when the engine's own memo or the plan cache
// answered it.
func planLookup(tr *tracer, cat *provrpq.Catalog, eng *provrpq.Engine, q *provrpq.Query) error {
	if !tr.on {
		_, err := eng.IsSafe(q)
		return err
	}
	misses := cat.Stats().PlanCache.Misses
	i := len(tr.spans)
	var err error
	tr.do("engine.plan_lookup", func() { _, err = eng.IsSafe(q) })
	if cat.Stats().PlanCache.Misses != misses {
		tr.spans[i].Name = "core.compile"
	}
	return err
}

// planCacheCounter takes the catalog's plan-cache counters at the start
// of a replay; hitRatio is the share of the lookups since then that the
// cache answered.
type planCacheCounter struct {
	cat  *provrpq.Catalog
	base provrpq.CacheStats
}

func countPlanCache(cat *provrpq.Catalog) planCacheCounter {
	return planCacheCounter{cat, cat.Stats().PlanCache}
}

func (p planCacheCounter) hitRatio() float64 {
	now := p.cat.Stats().PlanCache
	hits, misses := now.Hits-p.base.Hits, now.Misses-p.base.Misses
	return ratio(float64(hits), float64(hits+misses))
}

// pointTraceRequests is how many requests of the point sequence the traced
// run replays; pointTraceHTTP how many of them it also sends to rpqd.
const (
	pointTraceRequests = 20000
	pointTraceHTTP     = 5000
)

func tracePoint(cfg config) (*report, error) {
	pd, err := preparePoint(cfg)
	if err != nil {
		return nil, err
	}
	// Untraced HTTP round trips, one connection, closed loop.
	d, c, _, err := bootAndProbe(cfg, pd.dir, pd.probe)
	if err != nil {
		return nil, err
	}
	var t tally
	var rtt []float64
	for j := 0; j < pointTraceHTTP; j++ {
		sent := time.Now()
		wrong, err := pd.reqs[j].ask(c)
		rtt = append(rtt, us(time.Since(sent)))
		t.Attempted++
		if err != nil || wrong {
			t.Failed++
		}
		if wrong {
			t.Wrong++
		}
	}
	c.close()
	d.stop()

	cat, heapPerNode, err := openCatalog(pd.dir)
	if err != nil {
		return nil, err
	}
	replay := func(tr *tracer) (time.Duration, error) {
		start := time.Now()
		for j := 0; j < pointTraceRequests; j++ {
			pr := &pd.reqs[j]
			runName := pd.sets[pr.ds].runName
			var err error
			tr.request(j)
			tr.do("request", func() {
				var q *provrpq.Query
				var eng *provrpq.Engine
				var match bool
				tr.do("automata.parse", func() { q, err = provrpq.ParseQuery(pr.query) })
				if err != nil {
					return
				}
				tr.do("catalog.engine", func() { eng, err = cat.Engine(runName) })
				if err != nil {
					return
				}
				if err = planLookup(tr, cat, eng, q); err != nil {
					return
				}
				tr.do("label.pairwise", func() { match, err = eng.Pairwise(q, pr.from, pr.to) })
				if err == nil && match != pr.match {
					err = fmt.Errorf("in-process answer to %s differs from the reference", pr.body)
				}
			})
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	cold := newTracer(true)
	plans := countPlanCache(cat)
	if _, err := replay(cold); err != nil {
		return nil, err
	}
	hitRatio := plans.hitRatio()
	untraced, err := replay(newTracer(false))
	if err != nil {
		return nil, err
	}
	warm := newTracer(true)
	traced, err := replay(warm)
	if err != nil {
		return nil, err
	}
	t.Attempted += 3 * pointTraceRequests

	vals := map[string]float64{
		"server.overhead_us":         median(rtt) - medianOf(warm.spans, "request", time.Microsecond),
		"automata.parse_us":          medianOf(cold.spans, "automata.parse", time.Microsecond),
		"catalog.engine_us":          medianOf(cold.spans, "catalog.engine", time.Microsecond),
		"core.compile_ms":            meanOf(cold.spans, "core.compile", time.Millisecond),
		"plancache.hit_ratio":        hitRatio,
		"label.pairwise_ns":          medianOf(cold.spans, "label.pairwise", time.Nanosecond),
		"derive.heap_bytes_per_node": heapPerNode,
		"trace.overhead_us":          us(traced-untraced) / pointTraceRequests,
	}
	return layerReport(cfg, "point", t, vals, cold)
}

// interleaved runs requests 0..n-1 twice each, traced (on) and untraced,
// back to back with the order alternating per request, and returns the
// median of each request's traced minus untraced time. Pairing each
// request with itself keeps drift in the host's speed out of the
// difference.
func interleaved(n int, run func(j int, on bool) (time.Duration, error)) (time.Duration, error) {
	diffs := make([]float64, n)
	for j := 0; j < n; j++ {
		var traced, untraced time.Duration
		for k := 0; k < 2; k++ {
			on := (j+k)%2 == 1
			d, err := run(j, on)
			if err != nil {
				return 0, err
			}
			if on {
				traced = d
			} else {
				untraced = d
			}
		}
		diffs[j] = float64(traced - untraced)
	}
	return time.Duration(median(diffs)), nil
}

// cpuNow is this process's CPU time (user + system).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func traceAnalytic(cfg config) (*report, error) {
	ad, err := prepareAnalytic(cfg, false)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	// Index and planner statistics, built directly over each run.
	var ixTime, statsTime time.Duration
	for i, ds := range ad.sets {
		run, err := derive.Derive(ds.d.Spec, derive.Options{Seed: deriveSeed(analyticDataSeed, i), TargetEdges: analyticEdges})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ix := index.Build(run)
		ixTime += time.Since(start)
		start = time.Now()
		plan.New(ix).ReachDensity()
		statsTime += time.Since(start)
	}
	vals["index.build_ms"] = ms(ixTime) / float64(len(ad.sets))
	vals["plan.stats_build_ms"] = ms(statsTime) / float64(len(ad.sets))

	cat, heapPerNode, err := openCatalog(ad.dir)
	if err != nil {
		return nil, err
	}
	vals["derive.heap_bytes_per_node"] = heapPerNode
	// Build each engine's index and planner before the replay, as rpqd's
	// set-up probes do.
	for _, ds := range ad.sets {
		eng, err := cat.Engine(ds.runName)
		if err != nil {
			return nil, err
		}
		if _, err := eng.Explain(provrpq.MustParseQuery(ds.d.StarQuery())); err != nil {
			return nil, err
		}
	}

	type outcome struct {
		rep   *provrpq.PlanReport
		total int
	}
	// request replays one suite query through the layers rpqd's evaluate
	// handler calls.
	request := func(tr *tracer, j int) (outcome, time.Duration, error) {
		sq := &ad.suite[j]
		runName := ad.sets[sq.ds].runName
		var out outcome
		var err error
		tr.request(j)
		took := tr.do("request", func() {
			var q *provrpq.Query
			var eng *provrpq.Engine
			var pairs []provrpq.Pair
			tr.do("automata.parse", func() { q, err = provrpq.ParseQuery(sq.query) })
			if err != nil {
				return
			}
			tr.do("catalog.engine", func() { eng, err = cat.Engine(runName) })
			if err != nil {
				return
			}
			if err = planLookup(tr, cat, eng, q); err != nil {
				return
			}
			name := "engine.evaluate"
			if out.rep, err = eng.Explain(q); err != nil {
				return
			}
			if out.rep.Decomposed {
				name = "core.decompose"
			}
			tr.do(name, func() { pairs, _, err = eng.EvaluatePlanned(q) })
			if err != nil {
				return
			}
			out.total = len(pairs)
			tr.do("server.encode", func() {
				_, err = json.Marshal(map[string]any{"total": len(pairs), "pairs": pageOf(eng.Run(), pairs)})
			})
		})
		return out, took, err
	}

	tr := newTracer(true)
	plans := countPlanCache(cat)
	var t tally
	var regrets, unitsPerPair []float64
	var relational, unsafeN int
	var scanWall, scanCPU time.Duration
	forced := []struct {
		s    provrpq.Strategy
		name string
	}{
		{provrpq.StrategyRPL, "scan.rpl"}, {provrpq.StrategyOptRPL, "scan.optrpl"}, {provrpq.StrategySeeded, "scan.seeded"},
	}
	for j := range ad.suite {
		out, _, err := request(tr, j)
		t.Attempted++
		if err != nil {
			return nil, fmt.Errorf("%q: %w", ad.suite[j].query, err)
		}
		if !out.rep.Safe {
			relational += out.rep.RelationalNodes
			unsafeN++
			continue
		}
		// Every strategy, forced, on the same query: the planner's regret
		// is its pick's time over the fastest.
		sq := &ad.suite[j]
		eng, _ := cat.Engine(ad.sets[sq.ds].runName)
		q := provrpq.MustParseQuery(sq.query)
		all := eng.Run().AllNodes()
		took := map[provrpq.Strategy]time.Duration{}
		best := time.Duration(1<<63 - 1)
		for _, f := range forced {
			s := f.s
			var n int
			wall0, cpu0 := time.Now(), cpuNow()
			took[s] = tr.do(f.name, func() {
				var pairs []provrpq.Pair
				pairs, err = eng.AllPairs(q, all, all, s)
				n = len(pairs)
			})
			scanWall += time.Since(wall0)
			scanCPU += cpuNow() - cpu0
			t.Attempted++
			if err != nil {
				return nil, err
			}
			if n != out.total {
				t.Failed++
				t.Wrong++
			}
			best = min(best, took[s])
		}
		regrets = append(regrets, ratio(float64(took[out.rep.Strategy]), float64(best)))
		est := map[provrpq.Strategy]float64{
			provrpq.StrategyRPL: out.rep.CostRPL, provrpq.StrategyOptRPL: out.rep.CostOptRPL, provrpq.StrategySeeded: out.rep.CostSeeded,
		}[out.rep.Strategy]
		unitsPerPair = append(unitsPerPair, est/float64(max(out.total, 1)))
	}
	// Every request again, warm, traced and untraced back to back in
	// alternating order, for the tracing overhead.
	overhead, err := interleaved(len(ad.suite), func(j int, on bool) (time.Duration, error) {
		_, took, err := request(newTracer(on), j)
		t.Attempted++
		return took, err
	})
	if err != nil {
		return nil, err
	}

	vals["automata.parse_us"] = medianOf(tr.spans, "automata.parse", time.Microsecond)
	vals["catalog.engine_us"] = medianOf(tr.spans, "catalog.engine", time.Microsecond)
	vals["core.compile_ms"] = meanOf(tr.spans, "core.compile", time.Millisecond)
	vals["plancache.hit_ratio"] = plans.hitRatio()
	vals["server.encode_ms"] = meanOf(tr.spans, "server.encode", time.Millisecond)
	vals["plan.regret_p50"] = median(regrets)
	vals["plan.regret_max"] = quantile(regrets, 1)
	vals["plan.est_units_per_pair"] = median(unitsPerPair)
	vals["scan.rpl_ms"] = meanOf(tr.spans, "scan.rpl", time.Millisecond)
	vals["scan.optrpl_ms"] = meanOf(tr.spans, "scan.optrpl", time.Millisecond)
	vals["scan.seeded_ms"] = meanOf(tr.spans, "scan.seeded", time.Millisecond)
	vals["core.decompose_ms"] = meanOf(tr.spans, "core.decompose", time.Millisecond)
	vals["core.relational_nodes"] = ratio(float64(relational), float64(unsafeN))
	vals["parallel.busy_ratio"] = ratio(float64(scanCPU), float64(scanWall)*float64(runtime.GOMAXPROCS(0)))
	vals["trace.overhead_us"] = us(overhead)
	return layerReport(cfg, "analytic", t, vals, tr)
}

// copyDir copies the regular files of a data directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

func traceIngest(cfg config) (*report, error) {
	n := int(ingestRate * cfg.seconds.Seconds())
	id, err := prepareIngest(cfg, n)
	if err != nil {
		return nil, err
	}
	ds := id.ds
	q := provrpq.MustParseQuery(id.query)
	vals := map[string]float64{}

	// open returns a replay of the batches, one per step, into a durable
	// catalog opened on its own copy of the data directory. A step does what
	// rpqd's append handler, its watcher and the read-after-write evaluate
	// do for one batch; traced steps also feed the per-layer counts. final
	// reports whether snapshot ∪ deltas equals the reference result; plans
	// counts the catalog's plan-cache traffic from the start.
	var decodes, deltaPairs, commits float64
	var materialize []float64
	wrongReads := 0
	open := func(dir string) (step func(tr *tracer, i int) (time.Duration, error), final func() bool, plans planCacheCounter, err error) {
		if err := copyDir(id.dir, dir); err != nil {
			return nil, nil, plans, err
		}
		cat, heapPerNode, err := openCatalog(dir)
		if err != nil {
			return nil, nil, plans, err
		}
		vals["derive.heap_bytes_per_node"] = heapPerNode
		spec, ok := cat.Spec(ds.specName)
		if !ok {
			return nil, nil, plans, fmt.Errorf("specification %q not restored", ds.specName)
		}
		var last provrpq.AppendEvent
		cat.SubscribeAppends(func(ev provrpq.AppendEvent) { last = ev })
		got := map[pairName]bool{}
		for p := range id.sets[0] {
			got[p] = true
		}
		step = func(tr *tracer, i int) (time.Duration, error) {
			var err error
			tr.request(i)
			took := tr.do("request", func() {
				var b *provrpq.Batch
				var eng *provrpq.Engine
				var delta, pairs []provrpq.Pair
				tr.do("server.decode_batch", func() { b, err = provrpq.DecodeBatch(spec, id.batches[i]) })
				if err != nil {
					return
				}
				groups0, _ := store.CommitStats()
				tr.do("catalog.append", func() { _, err = cat.AppendEdgesCAS(ds.runName, b, i) })
				if err != nil {
					return
				}
				groups1, _ := store.CommitStats()
				tr.do("watch.delta", func() { delta, err = cat.DeltaPairs(last, q) })
				if err != nil {
					return
				}
				tr.do("server.encode", func() {
					_, err = json.Marshal(map[string]any{"version": last.Version, "count": len(delta), "pairs": pageOf(last.Run, delta)})
				})
				for _, p := range delta {
					got[pairName{last.Run.NodeName(p.From), last.Run.NodeName(p.To)}] = true
				}
				tr.do("catalog.engine", func() { eng, err = cat.Engine(ds.runName) })
				if err != nil {
					return
				}
				first := tr.do("engine.evaluate", func() { pairs, err = eng.Evaluate(q) })
				if err != nil {
					return
				}
				second := tr.do("engine.evaluate_warm", func() { _, err = eng.Evaluate(q) })
				if err == nil && len(pairs) != id.totals[i+1] {
					wrongReads++
				}
				if tr.on {
					commits += float64(groups1 - groups0)
					decodes += 2 * float64(last.NewNodes) * float64(last.Run.NumNodes())
					deltaPairs += float64(len(delta))
					materialize = append(materialize, ms(first-second))
				}
			})
			if err != nil {
				return 0, fmt.Errorf("batch %d: %w", i, err)
			}
			return took, nil
		}
		return step, func() bool { return sameSet(got, id.sets[len(id.sets)-1]) }, countPlanCache(cat), nil
	}

	tr := newTracer(true)
	traced, tracedFinal, plans, err := open(filepath.Join(cfg.work, "traced"))
	if err != nil {
		return nil, err
	}
	untraced, untracedFinal, _, err := open(filepath.Join(cfg.work, "untraced"))
	if err != nil {
		return nil, err
	}
	var t tally
	overhead, err := interleaved(len(id.batches), func(i int, on bool) (time.Duration, error) {
		t.Attempted++
		if on {
			return traced(tr, i)
		}
		return untraced(newTracer(false), i)
	})
	if err != nil {
		return nil, err
	}
	t.Failed += wrongReads
	t.Wrong += wrongReads
	for _, final := range []func() bool{tracedFinal, untracedFinal} {
		t.Attempted++
		if !final() {
			t.Failed++
			t.Wrong++
		}
	}
	vals["plancache.hit_ratio"] = plans.hitRatio()
	vals["watch.decodes_per_delta_pair"] = decodes / max(deltaPairs, 1)
	vals["store.commits_per_batch"] = commits / float64(len(id.batches))
	vals["label.materialize_ms"] = median(materialize)

	// The append's parts, timed on equivalent work: Grow on the internal
	// run, and the store append on a third copy of the data directory; the
	// index and planner statistics per version.
	irun, err := derive.DecodeRun(ds.d.Spec, id.baseJSON)
	if err != nil {
		return nil, err
	}
	stDir := filepath.Join(cfg.work, "store")
	if err := copyDir(id.dir, stDir); err != nil {
		return nil, err
	}
	st, err := provrpq.OpenStore(stDir)
	if err != nil {
		return nil, err
	}
	for i, body := range id.batches {
		tr.request(i)
		ib, err := derive.DecodeBatch(ds.d.Spec, body)
		if err != nil {
			return nil, err
		}
		tr.do("derive.grow", func() { irun, _, err = irun.Grow(ib) })
		if err != nil {
			return nil, err
		}
		b, err := provrpq.DecodeBatch(ds.spec, body)
		if err != nil {
			return nil, err
		}
		tr.do("store.append", func() { _, err = st.AppendRun(ds.runName, b) })
		if err != nil {
			return nil, err
		}
		var ix *index.Index
		tr.do("index.build", func() { ix = index.Build(irun) })
		tr.do("plan.stats_build", func() { plan.New(ix).ReachDensity() })
	}
	grow := meanOf(tr.spans, "derive.grow", time.Millisecond)
	storeAppend := meanOf(tr.spans, "store.append", time.Millisecond)
	vals["server.decode_batch_ms"] = meanOf(tr.spans, "server.decode_batch", time.Millisecond)
	vals["server.encode_ms"] = meanOf(tr.spans, "server.encode", time.Millisecond)
	vals["catalog.engine_us"] = medianOf(tr.spans, "catalog.engine", time.Microsecond)
	vals["catalog.append_self_ms"] = meanOf(tr.spans, "catalog.append", time.Millisecond) - grow - storeAppend
	vals["derive.grow_ms"] = grow
	vals["store.append_ms"] = storeAppend
	vals["index.build_ms"] = meanOf(tr.spans, "index.build", time.Millisecond)
	vals["plan.stats_build_ms"] = meanOf(tr.spans, "plan.stats_build", time.Millisecond)
	vals["watch.delta_ms"] = meanOf(tr.spans, "watch.delta", time.Millisecond)
	vals["trace.overhead_us"] = us(overhead)
	return layerReport(cfg, "ingest", t, vals, tr)
}
