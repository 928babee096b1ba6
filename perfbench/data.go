package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"provrpq"
	"provrpq/internal/workload"
)

// dataset is one of the paper's workflow specifications as the public API
// sees it, with the generators' tag pools.
type dataset struct {
	d        *workload.Dataset
	spec     *provrpq.Spec
	specName string // catalog name of the specification
	runName  string // catalog name of the dataset's run
}

// datasets returns BioAID and QBLast, in that order.
func datasets() ([]*dataset, error) {
	var out []*dataset
	for _, d := range []*workload.Dataset{workload.BioAID(), workload.QBLast()} {
		// The generators speak the internal specification; the catalog wants
		// the public handle, so round-trip through the JSON encoding.
		data, err := json.Marshal(d.Spec)
		if err != nil {
			return nil, err
		}
		spec := &provrpq.Spec{}
		if err := spec.UnmarshalJSON(data); err != nil {
			return nil, err
		}
		out = append(out, &dataset{d: d, spec: spec, specName: d.Name, runName: d.Name + "-run"})
	}
	return out, nil
}

// deriveSeed gives each dataset its own derivation seed for a workload seed.
func deriveSeed(seed int64, i int) int64 { return seed*2 + int64(i) }

// derive derives a run of about the given number of edges.
func (ds *dataset) derive(seed int64, edges int) (*provrpq.Run, error) {
	run, err := ds.spec.Derive(provrpq.DeriveOptions{Seed: seed, TargetEdges: edges})
	if err != nil {
		return nil, fmt.Errorf("deriving %s (%d edges, seed %d): %w", ds.d.Name, edges, seed, err)
	}
	return run, nil
}

// storeRun persists a run, with its specification, into an rpqd data
// directory, exactly as rpqd would after POST /v1/specs and /v1/runs.
func storeRun(dir string, ds *dataset, run *provrpq.Run) error {
	st, err := provrpq.OpenStore(dir)
	if err != nil {
		return err
	}
	if !st.HasSpec(ds.specName) {
		if err := st.SaveSpec(ds.specName, ds.spec); err != nil {
			return err
		}
	}
	return st.SaveRun(ds.runName, ds.specName, run)
}

// safeQueries draws the paper's safe query classes for a dataset: draws
// infrequent-symbol queries (IFQs) for every k in 1..4 at both
// selectivities, then the Kleene-star query over the fork tag.
func safeQueries(ds *dataset, r *rand.Rand, draws int) []string {
	var qs []string
	for i := 0; i < draws; i++ {
		for k := 1; k <= 4; k++ {
			for _, low := range []bool{false, true} {
				qs = append(qs, ds.d.SafeIFQ(r, k, low))
			}
		}
	}
	return append(qs, ds.d.StarQuery())
}

// mustBeSafe fails when a generator produced an unsafe query where the
// workload needs a safe one.
func mustBeSafe(eng *provrpq.Engine, qs []string) error {
	for _, s := range qs {
		q, err := provrpq.ParseQuery(s)
		if err != nil {
			return err
		}
		safe, err := eng.IsSafe(q)
		if err != nil {
			return err
		}
		if !safe {
			return fmt.Errorf("generated query %q is unsafe", s)
		}
	}
	return nil
}

// encode marshals a request body.
func encode(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and strings are encoded
	}
	return data
}
