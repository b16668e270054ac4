package api

// Kind selects a job's execution engine.
const (
	KindCampaign = "campaign" // one comptest.Campaign: every script × one stand
	KindMutate   = "mutate"   // mutation.Run: kill matrix, baseline + mutants
	KindExplore  = "explore"  // explore.Run: coverage-guided scenario search
	KindVet      = "vet"      // lint.Run: workbook static analysis, one finding per line
)

// JobSpec is the POST /v1/jobs request body. The zero value of every
// field selects a default; an empty spec runs the paper's built-in
// interior-illumination campaign on the paper stand.
type JobSpec struct {
	// Kind: campaign (default), mutate, explore or vet.
	Kind string `json:"kind,omitempty"`
	// Workbook is the inline workbook text. Mutually exclusive with
	// WorkbookName.
	Workbook string `json:"workbook,omitempty"`
	// WorkbookName names a registered DUT whose built-in workbook is
	// used. Mutually exclusive with Workbook.
	WorkbookName string `json:"workbook_name,omitempty"`
	// DUT is the registered model under test. Defaults to WorkbookName
	// when that is set, interior_light otherwise.
	DUT string `json:"dut,omitempty"`
	// Stand is the stand profile. Defaults to the DUT's known-green
	// stand (mutation.DefaultStand).
	Stand string `json:"stand,omitempty"`
	// Scripts, when non-empty, restricts a campaign job to the named
	// generated scripts of the workbook, in the given order. This is
	// the shard selector of the distributed layer (comptest/dist): a
	// coordinator splits a campaign's script list into chunks and
	// submits each chunk as an ordinary job carrying the same workbook
	// bytes — which the worker's artifact cache parses only once.
	Scripts []string `json:"scripts,omitempty"`
	// Faults are injected into every campaign unit's DUT instance
	// (campaign kind only).
	Faults []string `json:"faults,omitempty"`
	// Parallelism bounds the job's worker pool (default: the server's
	// per-job default).
	Parallelism int `json:"parallelism,omitempty"`
	// Seed and Budget parameterise explore jobs (explore's own
	// defaults apply when zero).
	Seed   int64 `json:"seed,omitempty"`
	Budget int   `json:"budget,omitempty"`
	// Oracle lists fault names used as explore kill oracles.
	Oracle []string `json:"oracle,omitempty"`
	// Trace enables structured span tracing for campaign jobs: the
	// execution timeline (campaign → unit → step) streams as NDJSON
	// from GET /v1/jobs/{id}/trace. Off by default — the attached
	// observer makes the solver sample outputs every stand.TracePeriod,
	// which is measurable extra work on the hot path.
	Trace bool `json:"trace,omitempty"`
	// Tenant attributes the job to a quota account. Empty means the
	// anonymous default tenant. Servers configured with per-tenant
	// quotas (serve.Options.Quota) enforce active-job and submission
	// rate limits per tenant value, answering 429 with a Retry-After
	// hint when a tenant exceeds them.
	Tenant string `json:"tenant,omitempty"`
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"      // engine completed; see Verdict
	StateFailed    State = "failed"    // engine error (red baseline, build failure, …)
	StateCancelled State = "cancelled" // DELETE or server shutdown
)

// Terminal reports whether the state is final.
func Terminal(s State) bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// CampaignStatus summarises a campaign job (mirrors comptest.Summary).
type CampaignStatus struct {
	Units   int `json:"units"`
	Passed  int `json:"passed"`
	Failed  int `json:"failed"`
	Errored int `json:"errored"`
	Skipped int `json:"skipped"`
}

// MutationStatus summarises a mutate job's kill matrix.
type MutationStatus struct {
	Mutants  int `json:"mutants"`
	Killed   int `json:"killed"`
	Survived int `json:"survived"`
	Errored  int `json:"errored"`
}

// VetStatus summarises a vet job's findings by severity.
type VetStatus struct {
	Findings   int `json:"findings"`
	Errors     int `json:"errors"`
	Warnings   int `json:"warnings"`
	Infos      int `json:"infos"`
	Suppressed int `json:"suppressed"`
}

// ExplorationStatus summarises an explore job's corpus.
type ExplorationStatus struct {
	Candidates   int `json:"candidates"`
	Executions   int `json:"executions"`
	Scenarios    int `json:"scenarios"`
	CoverageKeys int `json:"coverage_keys"`
}

// ShardStatus summarises the distributed execution of a job: how its
// unit matrix was chunked, how far dispatch has progressed, and how
// often shards had to be requeued onto surviving workers. Only set on
// servers executing through a distributing Executor (comptest/dist).
type ShardStatus struct {
	Total     int `json:"total"`     // shards the unit matrix was split into
	Completed int `json:"completed"` // shards fully merged
	Requeued  int `json:"requeued"`  // dispatch attempts retried on another worker
	Local     int `json:"local"`     // shards executed by the coordinator's local fallback
	// Stolen counts shards the coordinator's work-stealing executed
	// locally because every eligible worker was saturated. They are
	// counted apart from Local; both are within Completed.
	Stolen int `json:"stolen,omitempty"`
	// Readopted counts shards whose results were re-adopted from
	// worker-retained jobs after a coordinator restart, instead of
	// being re-run.
	Readopted int `json:"readopted,omitempty"`
	// Workers lists the distinct worker IDs that completed shards.
	Workers []string `json:"workers,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} response body.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	// Verdict is set on done jobs: green when the job's engine reports
	// full success (campaign all-pass, mutation matrix without errored
	// mutants, exploration complete), red otherwise.
	Verdict string `json:"verdict,omitempty"`
	Error   string `json:"error,omitempty"`
	// Reports counts the NDJSON lines streamed so far.
	Reports     int                `json:"reports"`
	Workbook    string             `json:"workbook"` // artifact content hash
	Stand       string             `json:"stand"`
	DUT         string             `json:"dut"`
	Tenant      string             `json:"tenant,omitempty"`
	Campaign    *CampaignStatus    `json:"campaign,omitempty"`
	Mutation    *MutationStatus    `json:"mutation,omitempty"`
	Exploration *ExplorationStatus `json:"exploration,omitempty"`
	Vet         *VetStatus         `json:"vet,omitempty"`
	Shards      *ShardStatus       `json:"shards,omitempty"`
	// Recovered marks a job restored from the coordinator's journal
	// after a restart (comptest/dist state-dir recovery).
	Recovered bool `json:"recovered,omitempty"`
}
