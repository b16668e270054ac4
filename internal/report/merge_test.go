package report

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

func line(i int) []byte { return []byte(fmt.Sprintf("line-%d\n", i)) }

// lineMerge is the coordinator's result-line merge: a Sequencer whose
// release writes each line to w.
func lineMerge(w io.Writer) *Sequencer[[]byte] {
	return NewSequencer(0, func(l []byte) error {
		_, err := w.Write(l)
		return err
	})
}

// TestMergerOrdersOutOfOrderArrivals: lines landing in completion
// order from concurrent shards come out in sequence order.
func TestMergerOrdersOutOfOrderArrivals(t *testing.T) {
	var buf bytes.Buffer
	m := lineMerge(&buf)
	for i, seq := range []int{2, 0, 3, 1} {
		accepted, err := m.Add(seq, line(seq))
		if err != nil || !accepted {
			t.Fatalf("Add(%d) = %v, %v", seq, accepted, err)
		}
		if i == 0 && buf.Len() != 0 {
			t.Errorf("line 2 released before lines 0 and 1: %q", buf.String())
		}
	}
	want := "line-0\nline-1\nline-2\nline-3\n"
	if buf.String() != want {
		t.Errorf("merged %q, want %q", buf.String(), want)
	}
	if m.Pending() != 0 {
		t.Errorf("pending = %d after every gap filled, want 0", m.Pending())
	}
}

// TestMergerDropsDuplicateDeliveries models the requeue race: a shard
// delivered units 0–1, its worker died, and the requeued shard
// re-delivers 0–3. The re-deliveries of 0 and 1 must vanish, whether
// they were already released (0, 1) or are still pending (5).
func TestMergerDropsDuplicateDeliveries(t *testing.T) {
	var buf bytes.Buffer
	m := lineMerge(&buf)
	// First (doomed) delivery: units 0, 1 and 5, with DIFFERENT bytes
	// than the retry will send, so the test catches which copy survives.
	for _, seq := range []int{0, 1, 5} {
		if accepted, err := m.Add(seq, []byte(fmt.Sprintf("first-%d\n", seq))); err != nil || !accepted {
			t.Fatalf("first Add(%d) = %v, %v", seq, accepted, err)
		}
	}
	// Requeued shard re-delivers everything, 5 (still pending) first.
	for _, seq := range []int{5, 0, 1, 2, 3, 4} {
		accepted, err := m.Add(seq, line(seq))
		if err != nil {
			t.Fatal(err)
		}
		if wantAccept := seq >= 2 && seq != 5; accepted != wantAccept {
			t.Errorf("Add(%d) accepted = %v, want %v", seq, accepted, wantAccept)
		}
	}
	want := "first-0\nfirst-1\nline-2\nline-3\nline-4\nfirst-5\n"
	if buf.String() != want {
		t.Errorf("merged %q, want %q (first delivery wins, retry dedups)", buf.String(), want)
	}
}

// TestMergerResumesAtFloor: a resumed merge drops every sequence below
// its floor (the journaled prefix) and writes the floor line first.
func TestMergerResumesAtFloor(t *testing.T) {
	var buf bytes.Buffer
	m := NewSequencer(2, func(l []byte) error {
		_, err := buf.Write(l)
		return err
	})
	for seq := 0; seq < 4; seq++ {
		accepted, err := m.Add(seq, line(seq))
		if err != nil {
			t.Fatal(err)
		}
		if wantAccept := seq >= 2; accepted != wantAccept {
			t.Errorf("Add(%d) accepted = %v, want %v", seq, accepted, wantAccept)
		}
	}
	if want := "line-2\nline-3\n"; buf.String() != want {
		t.Errorf("resumed merge %q, want %q", buf.String(), want)
	}
}

type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("sink broke")
	}
	f.n--
	return len(p), nil
}

// TestMergerLatchesWriteError: the first sink failure sticks; later
// Adds, Skips and Drain surface it instead of silently dropping lines.
func TestMergerLatchesWriteError(t *testing.T) {
	m := lineMerge(&failAfter{n: 1})
	if _, err := m.Add(0, line(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(1, line(1)); err == nil {
		t.Fatal("write failure not surfaced")
	}
	if accepted, err := m.Add(2, line(2)); err == nil || accepted || m.Err() == nil {
		t.Error("write failure not latched")
	}
	if m.Skip(3, 4) == nil || m.Drain() == nil {
		t.Error("write failure not latched by Skip/Drain")
	}
}

// TestMergerConcurrentAdds hammers the merge from concurrent "shards"
// (with overlapping re-deliveries) and checks the output is one
// ordered, exactly-once sequence. Run with -race.
func TestMergerConcurrentAdds(t *testing.T) {
	const units = 200
	var buf bytes.Buffer
	m := lineMerge(&buf)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted int
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine delivers an overlapping slice, shuffled by
			// a fixed stride so arrivals interleave out of order.
			for i := 0; i < units; i++ {
				seq := (i*37 + w*13) % units
				if ok, _ := m.Add(seq, line(seq)); ok {
					mu.Lock()
					accepted++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if accepted != units || m.Pending() != 0 {
		t.Fatalf("accepted=%d pending=%d, want %d/0", accepted, m.Pending(), units)
	}
	var want bytes.Buffer
	for i := 0; i < units; i++ {
		want.Write(line(i))
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Error("concurrent merge is not the ordered exactly-once sequence")
	}
}
