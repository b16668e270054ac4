package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/comptest/serve"
)

// FuzzReplayJournal checks journal replay on arbitrary bytes:
//
//   - it never panics;
//   - a final line that does not parse is dropped: the replay equals the
//     replay of the file without that line;
//   - a line that does not parse anywhere else fails the replay, and the
//     error names the file and the line;
//   - replay, snapshot, replay again folds the same state, so recovery
//     is idempotent.
//
// The committed corpus holds two journals of
// TestCoordinatorCrashRecoveryByteIdentical's shape: one frozen
// mid-campaign by the crash, one after the recovered job finished.
func FuzzReplayJournal(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"t":"job","job":"j","spec":{"kind":"campaign"},"workbook":"wb"}` + "\n" +
		`{"t":"plan","job":"j","shard_units":2}` + "\n" +
		`{"t":"line","job":"j","line":"l0"}` + "\n" +
		`{"t":"line","jo`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		bad, lines := badLines(data)
		st, err := replayJournal(path)
		if len(bad) > 0 && bad[0] < lines-1 {
			want := fmt.Sprintf("journal %s:%d:", path, bad[0]+1)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("unparseable line %d of %d: err = %v, want %q", bad[0]+1, lines, err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		got := foldedState(st)

		if len(bad) > 0 { // the final line only
			body := bytes.TrimSuffix(data, []byte("\n"))
			prefix := filepath.Join(dir, "prefix.ndjson")
			if err := os.WriteFile(prefix, body[:bytes.LastIndexByte(body, '\n')+1], 0o644); err != nil {
				t.Fatal(err)
			}
			st2, err := replayJournal(prefix)
			if err != nil {
				t.Fatalf("replay without the torn line: %v", err)
			}
			if want := foldedState(st2); got != want {
				t.Fatalf("torn final line changed the replay:\n got: %s\nwant: %s", got, want)
			}
		}

		snap := filepath.Join(dir, "snapshot.ndjson")
		if err := writeSnapshot(snap, st); err != nil {
			t.Fatal(err)
		}
		again, err := replayJournal(snap)
		if err != nil {
			t.Fatalf("replay of the snapshot: %v", err)
		}
		if after := foldedState(again); after != got {
			t.Fatalf("snapshot changed the folded state:\nbefore: %s\n after: %s", got, after)
		}
	})
}

// badLines splits data into lines as replay does and returns the
// indices of those that do not parse as a record, and the line count.
func badLines(data []byte) (bad []int, n int) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 64<<20)
	for ; sc.Scan(); n++ {
		var rec journalRec
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			bad = append(bad, n)
		}
	}
	return bad, n
}

// foldedState renders a replayed state for comparison. Specs, statuses
// and worker infos go through their JSON encoding, which is all of them
// a snapshot keeps (an empty list and a missing one encode alike).
func foldedState(st *replayed) string {
	type job struct {
		Spec       serve.JobSpec
		Workbook   string
		ShardUnits int
		Dispatches map[int][3]string
		Lines      []string
		Done       *serve.JobStatus
	}
	jobs := map[string]job{}
	for id, j := range st.jobs {
		fj := job{Spec: j.spec, Workbook: j.workbook, ShardUnits: j.shardUnits,
			Dispatches: map[int][3]string{}, Done: j.done}
		for shard, d := range j.dispatches {
			fj.Dispatches[shard] = [3]string{d.worker, d.url, d.remote}
		}
		for _, l := range j.lines {
			fj.Lines = append(fj.Lines, string(l))
		}
		jobs[id] = fj
	}
	out, err := json.Marshal(struct {
		Order   []string
		Jobs    map[string]job
		Workers []WorkerInfo
	}{append([]string(nil), st.order...), jobs, append([]WorkerInfo(nil), st.workers...)})
	if err != nil {
		panic(err)
	}
	return string(out)
}
