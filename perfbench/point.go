package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"provrpq"
)

// The point workload: safe pairwise lookups between uniformly random node
// pairs of a 1M-edge BioAID run and a 1M-edge QBLast run, sent open-loop.
const (
	pointEdges = 1_000_000
	// pointRequests is the length of the pre-generated request sequence;
	// longer phases cycle through it.
	pointRequests = 1 << 16
	// pointRate is the fixed open-loop rate (requests/s) at which the
	// pairwise latency percentiles are measured: about a tenth of the
	// closed-loop capacity of two connections on a 2-vCPU host (a median
	// of 10,000-12,500 requests/s over ten-run sets), so requests rarely
	// queue and the latency is the round trip an interactive lineage
	// lookup sees on a lightly loaded server.
	pointRate = 1000
)

// pointReq is one pre-generated pairwise request and its reference answer.
type pointReq struct {
	ds       int
	query    string
	from, to provrpq.NodeID
	body     []byte
	match    bool // Engine.Pairwise on the same run
}

// pointData is the prepared point workload.
type pointData struct {
	dir  string
	sets []*dataset
	reqs []pointReq
	// probes index, per run, the first request of the sequence on it: the
	// set-up check that each run answers correctly.
	probes []int
}

// preparePoint derives both runs, stores them in a fresh data directory and
// generates the request sequence with every reference answer. One run is
// held in memory at a time.
func preparePoint(cfg config) (*pointData, error) {
	sets, err := datasets()
	if err != nil {
		return nil, err
	}
	pd := &pointData{dir: filepath.Join(cfg.work, "point-data"), sets: sets, reqs: make([]pointReq, pointRequests)}
	pickDatasets(pd.reqs, cfg.seed, len(sets))
	for i, ds := range sets {
		run, err := ds.derive(deriveSeed(cfg.seed, i), pointEdges)
		if err != nil {
			return nil, err
		}
		if err := storeRun(pd.dir, ds, run); err != nil {
			return nil, err
		}
		eng := provrpq.NewEngine(run)
		r := rand.New(rand.NewSource(cfg.seed*31 + int64(i)))
		pool := safeQueries(ds, r, 1)
		if err := mustBeSafe(eng, pool); err != nil {
			return nil, err
		}
		drawRequests(pd.reqs, i, pool, run.NumNodes(), r)
		probe := -1
		for j := range pd.reqs {
			pr := &pd.reqs[j]
			if pr.ds != i {
				continue
			}
			if probe < 0 {
				probe = j
			}
			if pr.match, err = eng.Pairwise(provrpq.MustParseQuery(pr.query), pr.from, pr.to); err != nil {
				return nil, err
			}
			pr.body = encode(map[string]string{
				"run": ds.runName, "query": pr.query,
				"from": run.NodeName(pr.from), "to": run.NodeName(pr.to),
			})
		}
		pd.probes = append(pd.probes, probe)
	}
	runtime.GC()
	debug.FreeOSMemory()
	return pd, nil
}

// pickDatasets assigns each request a uniformly random run.
func pickDatasets(reqs []pointReq, seed int64, sets int) {
	r := rand.New(rand.NewSource(seed))
	for j := range reqs {
		reqs[j].ds = r.Intn(sets)
	}
}

// drawRequests gives every request on run ds a query from the pool and a
// uniformly random node pair.
func drawRequests(reqs []pointReq, ds int, pool []string, nodes int, r *rand.Rand) {
	for j := range reqs {
		if pr := &reqs[j]; pr.ds == ds {
			pr.query = pool[r.Intn(len(pool))]
			pr.from, pr.to = provrpq.NodeID(r.Intn(nodes)), provrpq.NodeID(r.Intn(nodes))
		}
	}
}

// ask sends one pairwise request and checks its answer.
func (pr *pointReq) ask(c *client) (wrong bool, err error) {
	var resp struct {
		Match bool `json:"match"`
	}
	if err := c.post("/v1/pairwise", pr.body, &resp); err != nil {
		return false, err
	}
	return resp.Match != pr.match, nil
}

func (pd *pointData) probe(c *client) error {
	for _, j := range pd.probes {
		wrong, err := pd.reqs[j].ask(c)
		if err != nil {
			return err
		}
		if wrong {
			return fmt.Errorf("wrong answer to %s", pd.reqs[j].body)
		}
	}
	return nil
}

// asker returns a source that walks the request sequence from *next.
func (pd *pointData) asker(c *client, next *int) source {
	return func() request {
		pr := &pd.reqs[*next%len(pd.reqs)]
		*next++
		return func() (bool, error) { return pr.ask(c) }
	}
}

func runPoint(cfg config) (*report, error) {
	pd, err := preparePoint(cfg)
	if err != nil {
		return nil, err
	}
	d, c, setup, err := setUp(cfg, pd.dir, pd.probe, nil)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	defer c.close()

	rep := &report{}
	next := 0
	// Warm connections and caches; not recorded.
	openLoop(maxConns, pointRate, time.Second/2, pd.asker(c, &next))

	rssSamples := d.sampleRSS()
	defer rssSamples.finish()
	// Three quarters of the measured time at the fixed rate: its median
	// is the gated latency, and it moves with the host's speed over
	// seconds, so it gets the longer window.
	fixed := openLoop(maxConns, pointRate, cfg.seconds*3/4, pd.asker(c, &next))
	rep.tally.add(fixed.tally)

	// Capacity: both connections kept busy, closed loop.
	capStats := closedLoop(maxConns, cfg.seconds/4, pd.asker(c, &next))
	rep.tally.add(capStats.tally)

	rss, err := rssSamples.finish()
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup, "s")
	rep.set("rss_peak_mb", rss, "MB")
	rep.set("latency_ms", quantile(fixed.svc, 0.5), "ms")
	rep.note("fail_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	rep.note("pairwise.p50_ms", quantile(fixed.lat, 0.5), "ms")
	rep.note("pairwise.p99_ms", quantile(fixed.lat, 0.99), "ms")
	rep.note("pairwise.max_late_ms", ms(fixed.maxLate), "ms")
	rep.note("point.capacity_rps", capStats.achieved, "1/s")
	return rep, nil
}
