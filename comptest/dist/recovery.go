package dist

import (
	"context"

	"repro/comptest/serve"
	"repro/internal/report"
)

// Recovery turns the replayed journal back into live coordinator
// state. Terminal jobs become readable history; in-flight jobs are
// re-enqueued through serve.Restore with their flushed stream prefix
// preloaded, and when the executor picks one up it finds this state
// waiting (takeRecovered) and resumes instead of restarting:
//
//   - campaign shards whose units are all below the flushed floor are
//     complete by construction (every line reached the stream) and are
//     skipped;
//   - shards with a surviving dispatch address are RE-ADOPTED — the
//     worker kept the shard job (and kept executing it through the
//     outage), so the coordinator re-attaches to its stream rather
//     than re-running the units;
//   - everything else goes through the normal dispatch/requeue path,
//     and the resumed line merge's floor plus sequence dedup keep the
//     merged stream exactly-once no matter how re-delivery overlaps.

// adoptReplayed installs the replayed journal state: fleet membership
// into the registry, in-flight job state into the recovered map, every
// job into the embedded server. Called from New after metrics exist
// and before the handler takes traffic.
func (c *Coordinator) adoptReplayed(st *replayed) {
	c.reg.restore(st.workers)
	for _, id := range st.order {
		rj := st.jobs[id]
		restored := serve.RestoredJob{
			ID:       rj.id,
			Spec:     rj.spec,
			Workbook: rj.workbook,
			Lines:    rj.lines,
			Status:   rj.done,
		}
		if rj.done == nil {
			// The executor consults this by job ID; populate BEFORE the
			// Restore enqueue makes the job runnable.
			c.recoveredMu.Lock()
			c.recovered[rj.id] = rj
			c.recoveredMu.Unlock()
		}
		if err := c.srv.Restore(restored); err != nil {
			c.logger.Error("job recovery failed", "job", rj.id, "error", err.Error())
			c.recoveredMu.Lock()
			delete(c.recovered, rj.id)
			c.recoveredMu.Unlock()
			continue
		}
		if rj.done == nil {
			c.mJobsRecovered.Inc()
			c.logger.Info("job recovered", "job", rj.id, "kind", rj.spec.Kind,
				"lines", len(rj.lines), "dispatches", len(rj.dispatches))
		}
	}
}

// takeRecovered claims (and removes) the recovered state for a job the
// executor is about to run. Single-use: once an execution consumed the
// state, a requeue of the same job starts clean.
func (c *Coordinator) takeRecovered(id string) *recoveredJob {
	if id == "" {
		return nil
	}
	c.recoveredMu.Lock()
	defer c.recoveredMu.Unlock()
	rj := c.recovered[id]
	delete(c.recovered, id)
	return rj
}

// seedTally re-counts the recovered stream prefix into a fresh tally,
// so CampaignStatus keeps summing to Units across the restart. Only
// flushed (journaled) lines seed; re-delivered duplicates of them are
// dropped by the resumed line merge and never tallied twice.
func seedTally(tl *tally, lines [][]byte) {
	for _, line := range lines {
		trimmed := line[:len(line)-1]
		if rep, err := report.DecodeJSON(trimmed); err == nil {
			if rep.Passed() {
				tl.passed++
			} else {
				tl.failed++
			}
			continue
		}
		if _, err := report.DecodeErrorLine(trimmed); err == nil {
			tl.errored++
		}
	}
}

// adoptShard re-attaches to a shard job a worker retained across the
// coordinator outage: stream the retained job (no new submission — the
// worker executed, or is still executing, the shard) and merge it
// under the shard's global sequence numbers, exactly like a fresh
// dispatch. Any failure falls back to the normal dispatch path; the
// remote job is then best-effort cancelled so the worker stops
// computing lines the requeue will re-deliver.
func (c *Coordinator) adoptShard(ctx context.Context, ad dispatchRec, j *dispatchJob, sh shardSpec) error {
	sctx, cancel := context.WithTimeout(ctx, shardTimeout)
	defer cancel()
	ls := lease{id: ad.worker, url: ad.url}
	complete := false
	defer func() {
		if !complete {
			c.cancelRemote(ad.url, ad.remote)
		}
	}()
	if err := c.streamShard(sctx, ls, ad.remote, j, sh); err != nil {
		return err
	}
	complete = true
	return nil
}
