package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"provrpq"
)

// The analytic workload: one closed-loop connection cycling a fixed suite
// of full /v1/evaluate calls over 2K-edge BioAID and QBLast runs.
const (
	analyticEdges = 2000
	// analyticDataSeed and suiteSeed fix the runs and the query suite:
	// the suite's costs span five orders of magnitude and hinge on each
	// run's shape, so a pass over seed-derived runs costs up to 40% more
	// or less from one seed to the next. The seed argument orders the
	// suite instead.
	analyticDataSeed = 1
	suiteSeed        = 1
	// suiteSafeDraws is how many IFQs each dataset contributes per (k,
	// selectivity) class.
	suiteSafeDraws = 2
	// suiteRandom is how many RandomQuery draws (depth 3, unfiltered: safe
	// and unsafe as drawn) each dataset contributes to the suite.
	suiteRandom = 3
	// pageLimit is the page of pairs every evaluate asks for, besides the
	// total.
	pageLimit = 100
)

// suiteQuery is one evaluate call of the suite with its reference answer.
type suiteQuery struct {
	ds    int
	query string
	body  []byte
	total int        // in-process Evaluate's pair count
	page  []pairName // in-process Evaluate's first page
}

type pairName struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// analyticSuite lists the suite per dataset: the safe IFQs and the star
// query, then the random queries.
func analyticSuite(sets []*dataset) []suiteQuery {
	var out []suiteQuery
	for i, ds := range sets {
		qs := safeQueries(ds, rand.New(rand.NewSource(suiteSeed)), suiteSafeDraws)
		r := rand.New(rand.NewSource(suiteSeed))
		for j := 0; j < suiteRandom; j++ {
			qs = append(qs, ds.d.RandomQuery(r, 3))
		}
		for _, q := range qs {
			out = append(out, suiteQuery{ds: i, query: q, body: encode(map[string]any{
				"run": ds.runName, "query": q, "limit": pageLimit,
			})})
		}
	}
	return out
}

type analyticData struct {
	dir    string
	sets   []*dataset
	runs   []*provrpq.Run
	suite  []suiteQuery
	probes []int // per run, the suite index of its set-up probe: the star query
}

// prepareAnalytic derives and stores both runs and, when withRef is set,
// evaluates the whole suite in-process for the reference answers.
func prepareAnalytic(cfg config, withRef bool) (*analyticData, error) {
	sets, err := datasets()
	if err != nil {
		return nil, err
	}
	ad := &analyticData{dir: filepath.Join(cfg.work, "analytic-data"), sets: sets, suite: analyticSuite(sets)}
	r := rand.New(rand.NewSource(cfg.seed))
	r.Shuffle(len(ad.suite), func(i, j int) { ad.suite[i], ad.suite[j] = ad.suite[j], ad.suite[i] })
	for i, ds := range sets {
		run, err := ds.derive(deriveSeed(analyticDataSeed, i), analyticEdges)
		if err != nil {
			return nil, err
		}
		if err := storeRun(ad.dir, ds, run); err != nil {
			return nil, err
		}
		ad.runs = append(ad.runs, run)
	}
	for i, ds := range sets {
		for j := range ad.suite {
			if ad.suite[j].ds == i && ad.suite[j].query == ds.d.StarQuery() {
				ad.probes = append(ad.probes, j)
				break
			}
		}
	}
	if !withRef {
		return ad, nil
	}
	engines := make([]*provrpq.Engine, len(ad.runs))
	for i, run := range ad.runs {
		engines[i] = provrpq.NewEngine(run)
	}
	for j := range ad.suite {
		sq := &ad.suite[j]
		pairs, err := engines[sq.ds].Evaluate(provrpq.MustParseQuery(sq.query))
		if err != nil {
			return nil, fmt.Errorf("reference evaluate %q: %w", sq.query, err)
		}
		sq.total = len(pairs)
		sq.page = pageOf(ad.runs[sq.ds], pairs)
	}
	return ad, nil
}

// pageOf names the first page of a sorted pair list.
func pageOf(run *provrpq.Run, pairs []provrpq.Pair) []pairName {
	pairs = pairs[:min(len(pairs), pageLimit)]
	out := make([]pairName, len(pairs))
	for i, p := range pairs {
		out[i] = pairName{run.NodeName(p.From), run.NodeName(p.To)}
	}
	return out
}

// evaluateAnswer is the part of a /v1/evaluate response the check reads.
type evaluateAnswer struct {
	Total int        `json:"total"`
	Pairs []pairName `json:"pairs"`
}

// checkEvaluate reports whether an evaluate answer matches the reference
// total and first page.
func checkEvaluate(got evaluateAnswer, total int, page []pairName) bool {
	if got.Total != total || len(got.Pairs) != len(page) {
		return false
	}
	for i := range page {
		if got.Pairs[i] != page[i] {
			return false
		}
	}
	return true
}

func (sq *suiteQuery) ask(c *client) (wrong bool, err error) {
	var got evaluateAnswer
	if err := c.post("/v1/evaluate", sq.body, &got); err != nil {
		return false, err
	}
	return !checkEvaluate(got, sq.total, sq.page), nil
}

func (ad *analyticData) probe(c *client) error {
	for _, j := range ad.probes {
		wrong, err := ad.suite[j].ask(c)
		if err != nil {
			return err
		}
		if wrong {
			return fmt.Errorf("wrong answer to %s", ad.suite[j].body)
		}
	}
	return nil
}

func runAnalytic(cfg config) (*report, error) {
	ad, err := prepareAnalytic(cfg, true)
	if err != nil {
		return nil, err
	}
	d, c, setup, err := setUp(cfg, ad.dir, ad.probe, nil)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	defer c.close()

	// pass sends the suite once; perQuery, when set, collects each query's
	// answered latencies.
	pass := func(st *loopStats, perQuery [][]float64) {
		for j := range ad.suite {
			sent := time.Now()
			wrong, err := ad.suite[j].ask(c)
			done := time.Now()
			st.record(wrong, err, sent, sent, done)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: analytic: %q: %v\n", ad.suite[j].query, err)
			} else if !wrong && perQuery != nil {
				perQuery[j] = append(perQuery[j], ms(done.Sub(sent)))
			}
		}
	}
	// One unmeasured pass lets the planner's measured unit costs warm up,
	// as they are on a long-running rpqd.
	var warm loopStats
	pass(&warm, nil)
	// Whole passes over the suite, until at least the measured time has
	// passed, so every run weighs every query equally.
	rssSamples := d.sampleRSS()
	defer rssSamples.finish()
	var st loopStats
	perQuery := make([][]float64, len(ad.suite))
	start := time.Now()
	for passes := 0; passes == 0 || time.Since(start) < cfg.seconds; passes++ {
		pass(&st, perQuery)
	}
	elapsed := time.Since(start)
	rss, err := rssSamples.finish()
	if err != nil {
		return nil, err
	}
	rep := &report{tally: st.tally}
	rep.add(warm.tally)
	// The suite's latencies span five orders of magnitude, so its median
	// sits on whichever query happens to rank in the middle; the geometric
	// mean of each query's median weighs every query's relative change
	// alike.
	medians := make([]float64, 0, len(perQuery))
	for _, xs := range perQuery {
		if len(xs) > 0 {
			medians = append(medians, median(xs))
		}
	}
	rep.set("setup_s", setup, "s")
	rep.set("rss_peak_mb", rss, "MB")
	rep.set("latency_ms", geomean(medians), "ms")
	rep.note("fail_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	rep.note("evaluate.p50_ms", quantile(st.svc, 0.5), "ms")
	rep.note("evaluate.p90_ms", quantile(st.svc, 0.9), "ms")
	rep.note("analytic.queries_per_s", float64(len(st.svc))/elapsed.Seconds(), "1/s")
	return rep, nil
}
