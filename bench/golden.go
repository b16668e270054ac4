package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/comptest"
	"repro/internal/report"
)

// goldens are the committed expected outputs of the batch workloads.
// They pin behaviour, not speed: a change that alters any of them
// changes what the system computes.
type goldens struct {
	Campaign struct {
		Digest  string           `json:"digest"` // SHA-256 of the ordered NDJSON stream
		Summary comptest.Summary `json:"summary"`
	} `json:"campaign_matrix"`
	Mutation map[string]report.Score `json:"mutation_matrix"` // per DUT
	Explore  map[string]string       `json:"explore_paper"`   // seed → SHA-256 of the corpus fingerprint
}

//go:embed testdata/golden.json
var goldenJSON []byte

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return &g, nil
}

// writeGoldens recomputes every golden from the current code: the
// campaign matrix once, each kill matrix once, and each exploration
// seed at parallelism 1.
func writeGoldens(ctx context.Context, path string) error {
	var g goldens
	c := &campaignMatrix{}
	if err := c.setup(ctx); err != nil {
		return err
	}
	run, err := c.run(ctx, nil, 0)
	if err != nil {
		return err
	}
	g.Campaign.Digest, g.Campaign.Summary = run.digest, run.sum

	m := &mutationMatrix{}
	if err := m.setup(ctx); err != nil {
		return err
	}
	g.Mutation = map[string]report.Score{}
	for _, p := range m.plans {
		mat, err := m.runPlan(ctx, p, nil)
		if err != nil {
			return err
		}
		g.Mutation[p.DUT] = mat.Score()
	}

	e := &exploreCycle{}
	if err := e.setup(ctx); err != nil {
		return err
	}
	g.Explore = map[string]string{}
	for _, seed := range exploreSeeds {
		res, err := e.explore(ctx, seed, 1, nil)
		if err != nil {
			return err
		}
		fp, err := fingerprint(res)
		if err != nil {
			return err
		}
		g.Explore[strconv.FormatInt(seed, 10)] = fp
	}
	b, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
