package provrpq

import "fmt"

// Standing queries: the paper's dynamic-label property (Section II-B) makes
// append deltas for safe queries append-only. A safe query is answered from
// the two endpoint labels alone, and labels are assigned at node-creation
// time and never recomputed — so growing a run cannot change any answer
// over pre-existing node pairs, and every *new* match must involve at least
// one node the batch created. Watching a safe query therefore costs one
// snapshot at registration plus, per append, a delta over only the pairs
// that involve a batch node — never a re-evaluation of the whole run. The
// delta is evaluated by the planner over batch × run endpoint lists, so it
// costs what the cheapest all-pairs strategy costs for those lists: when
// a tag the query requires never occurs in the run, the seeded strategy
// answers in O(1) once the run's index exists.
//
// Unsafe queries have no such property: their evaluation consults the
// grown adjacency, so an edges-only batch (which creates no nodes) can
// create new matches between two old nodes. ErrUnsafeWatch refuses them.

// ErrUnsafeWatch marks an attempt to register a standing query that is not
// safe (match with errors.Is): only safe queries have append-only deltas.
var ErrUnsafeWatch = fmt.Errorf("provrpq: standing queries require a safe query (unsafe answers can change on old pairs as edges arrive)")

// AppendEvent describes one committed growth batch, as delivered to
// SubscribeAppends subscribers. Run is the immutable published version the
// batch produced: evaluating against it is correct forever, regardless of
// later growth.
type AppendEvent struct {
	// RunName names the grown run; Version is its post-append version
	// (AppendResult.Version).
	RunName string
	Version int
	// Run is the published grown version (AppendResult.Run).
	Run *Run
	// FirstNewNode is the pre-append node count: the batch's nodes are
	// exactly ids [FirstNewNode, FirstNewNode+NewNodes) of Run.
	FirstNewNode NodeID
	// NewNodes and NewEdges count the batch's contents.
	NewNodes, NewEdges int
}

// SubscribeAppends registers fn to be called after every committed append
// on any run of the catalog, and returns its unsubscribe function. Calls
// are made synchronously on the appending goroutine while the run's growth
// lock is held, so per-run events arrive in version order with no gaps;
// fn must therefore be fast and must never block on the append path —
// queue the event and evaluate elsewhere (the server's SSE watchers keep a
// bounded per-watcher queue and drop the watcher on overflow).
func (c *Catalog) SubscribeAppends(fn func(AppendEvent)) (cancel func()) {
	c.subsMu.Lock()
	id := c.nextSubID
	c.nextSubID++
	if c.subs == nil {
		c.subs = make(map[int]func(AppendEvent))
	}
	c.subs[id] = fn
	c.subsMu.Unlock()
	return func() {
		c.subsMu.Lock()
		delete(c.subs, id)
		c.subsMu.Unlock()
	}
}

// notifyAppend delivers one append event to every subscriber. Called with
// the run's growth lock held (ordering); the subscriber list is copied
// under subsMu so callbacks run outside it.
func (c *Catalog) notifyAppend(ev AppendEvent) {
	c.subsMu.Lock()
	if len(c.subs) == 0 {
		c.subsMu.Unlock()
		return
	}
	fns := make([]func(AppendEvent), 0, len(c.subs))
	for _, fn := range c.subs {
		fns = append(fns, fn)
	}
	c.subsMu.Unlock()
	for _, fn := range fns {
		fn(ev)
	}
}

// DeltaPairs evaluates the standing-query delta of one append event: the
// safe-query matches of ev.Run that involve at least one batch node. The
// union of a full evaluation at version V and the deltas of every event
// after V equals a full evaluation at the latest version — the invariant
// the differential tests pin down. An edges-only batch yields no delta.
// Pairs are sorted by (From, To).
//
// The delta is two planner-chosen all-pairs scans over the event's
// immutable run version: new × all (every pair whose source is new) and
// old × new (the rest). It runs on the catalog's engine while that engine
// still serves ev.Run — so the index and planner statistics are shared
// with read-after-write queries and built once per version — and on a
// fresh engine over ev.Run for an event the run has already grown past.
func (c *Catalog) DeltaPairs(ev AppendEvent, q *Query) ([]Pair, error) {
	if ev.Run == nil || q == nil {
		return nil, fmt.Errorf("provrpq: DeltaPairs: nil run or query")
	}
	eng, err := c.Engine(ev.RunName)
	if err != nil || eng.Run() != ev.Run {
		eng = NewEngineOpts(ev.Run, EngineOptions{Workers: c.workers, PlanCache: c.plans})
	}
	safe, err := eng.IsSafe(q)
	if err != nil {
		return nil, err
	}
	if !safe {
		return nil, fmt.Errorf("%w: %s", ErrUnsafeWatch, q)
	}
	all := ev.Run.AllNodes()
	lo := int(ev.FirstNewNode)
	if lo < 0 || lo > len(all) {
		return nil, fmt.Errorf("provrpq: DeltaPairs: first new node %d outside run of %d nodes", lo, len(all))
	}
	if lo == len(all) {
		return nil, nil
	}
	old, fresh := all[:lo], all[lo:]
	out, err := eng.AllPairs(q, fresh, all, Auto)
	if err != nil {
		return nil, err
	}
	back, err := eng.AllPairs(q, old, fresh, Auto)
	if err != nil {
		return nil, err
	}
	out = append(out, back...)
	sortPairs(out)
	return out, nil
}

// RunAt returns the named run's current published version and its version
// number from one atomic registry read. A standing-query registration uses
// it to snapshot a consistent (run, version) pair: the full result at that
// version plus the deltas of every AppendEvent with a higher version equals
// the full result at any later version.
func (c *Catalog) RunAt(name string) (*Run, int, bool) {
	return c.reg.RunWithGeneration(name)
}

// IsSafeQuery reports whether q is safe for the given specification —
// answerable from endpoint labels alone, and so watchable as a standing
// query. It compiles (or cache-hits) the plan without evaluating.
func (c *Catalog) IsSafeQuery(spec *Spec, q *Query) (bool, error) {
	if spec == nil || spec.s == nil || q == nil {
		return false, fmt.Errorf("provrpq: IsSafeQuery: nil specification or query")
	}
	env, err := c.plans.c.Get(spec.s, q.node)
	if err != nil {
		return false, err
	}
	return env.Safe(), nil
}
