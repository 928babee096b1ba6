// Command perfbench is the repository's end-to-end benchmark. For one
// workload it derives the paper's BioAID and QBLast runs from a seed,
// writes them into an rpqd data directory, drives a live rpqd through its
// HTTP API from this one process over at most two connections, checks
// every answer against an in-process reference, and prints one JSON
// result line:
//
//	perfbench -rpqd rpqd -work dir --workload point --seed 1 --seconds 10 --trace 0
//
// Workloads (see METRICS.md for every metric's definition):
//
//	point     open-loop safe pairwise lookups on 1M-edge runs
//	analytic  one closed-loop connection cycling a fixed evaluate suite on 2K-edge runs
//	ingest    durable appends to a 100K-node run beside a standing query (SSE)
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing. With --trace 1 the same seeded request sequence is replayed
// in-process with a span around every call into a layer's public
// functions, and the result carries the per-layer metrics instead.
//
// The last line of standard output is the JSON result; human-readable
// metric lines precede it. Any wrong answer sets "correct" to false and
// makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts a workload's requests. Failed includes wrong answers, non-2xx
// responses, client deadlines, lagged watchers and deltas that never
// arrived; Late counts open-loop requests sent after their due time.
type tally struct {
	Attempted, Failed, Wrong, Late int
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Wrong += o.Wrong
	t.Late += o.Late
}

// report is what one workload run produces: the metrics under the names
// the result carries, plus the workload-specific named figures printed
// for people (METRICS.md maps one onto the other).
type report struct {
	tally
	metrics map[string]metric
	named   []namedMetric
}

type namedMetric struct {
	name  string
	value float64
	unit  string
}

func (r *report) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) note(name string, value float64, unit string) {
	r.named = append(r.named, namedMetric{name, value, unit})
}

// config is one invocation's parameters.
type config struct {
	rpqd    string
	work    string
	traces  string
	seed    int64
	seconds time.Duration
}

var workloads = map[string]struct {
	e2e   func(config) (*report, error)
	layer func(config) (*report, error)
}{
	"point":    {runPoint, tracePoint},
	"analytic": {runAnalytic, traceAnalytic},
	"ingest":   {runIngest, traceIngest},
}

func main() {
	rpqd := flag.String("rpqd", "", "path of the rpqd binary to drive")
	work := flag.String("work", "", "scratch directory for data directories (emptied per run)")
	traces := flag.String("traces", "", "directory the traced run writes its spans to (default: under -work)")
	name := flag.String("workload", "", "workload: point, analytic or ingest")
	seed := flag.Int64("seed", 1, "workload seed: the same seed derives the same runs and requests")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced in-process replay with per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *rpqd == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -rpqd path -work dir --workload point|analytic|ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	if *traces == "" {
		*traces = filepath.Join(*work, "traces")
	}
	cfg := config{rpqd: *rpqd, work: dir, traces: *traces, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	run := w.e2e
	if *trace == 1 {
		run = w.layer
	}
	rep, err := run(cfg)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing scratch data:", rmErr)
	}
	if err != nil {
		fatal(err)
	}
	emit(*name, rep)
	if rep.Wrong > 0 {
		os.Exit(1)
	}
}

// emit prints the human-readable metric lines, then the JSON result line.
func emit(workload string, rep *report) {
	fmt.Printf("%s: attempted %d, failed %d (wrong %d), late %d\n",
		workload, rep.Attempted, rep.Failed, rep.Wrong, rep.Late)
	for _, m := range rep.named {
		fmt.Printf("%s: %-30s %14.4f %s\n", workload, m.name, m.value, m.unit)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s: metric %-30s %14.4f %s\n", workload, n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	res := result{
		Correct:   rep.Wrong == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   rep.metrics,
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
