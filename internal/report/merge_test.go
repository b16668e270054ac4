package report

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func line(i int) []byte { return []byte(fmt.Sprintf("line-%d\n", i)) }

// TestMergerOrdersOutOfOrderArrivals: lines landing in completion
// order from concurrent shards come out in sequence order.
func TestMergerOrdersOutOfOrderArrivals(t *testing.T) {
	var buf bytes.Buffer
	m := NewMerger(&buf)
	for _, seq := range []int{2, 0, 3, 1} {
		accepted, err := m.Add(seq, line(seq))
		if err != nil || !accepted {
			t.Fatalf("Add(%d) = %v, %v", seq, accepted, err)
		}
	}
	want := "line-0\nline-1\nline-2\nline-3\n"
	if buf.String() != want {
		t.Errorf("merged %q, want %q", buf.String(), want)
	}
	if m.Written() != 4 || m.Pending() != 0 || m.Duplicates() != 0 {
		t.Errorf("counters: written=%d pending=%d dupes=%d", m.Written(), m.Pending(), m.Duplicates())
	}
}

// TestMergerDropsDuplicateDeliveries models the requeue race: a shard
// delivered units 0–1, its worker died, and the requeued shard
// re-delivers 0–3. The re-deliveries of 0 and 1 must vanish.
func TestMergerDropsDuplicateDeliveries(t *testing.T) {
	var buf bytes.Buffer
	m := NewMerger(&buf)
	// First (doomed) delivery: units 0 and 1, with DIFFERENT bytes than
	// the retry will send, so the test catches which copy survives.
	m.Add(0, []byte("first-0\n"))
	m.Add(1, []byte("first-1\n"))
	// Requeued shard re-delivers everything.
	for seq := 0; seq < 4; seq++ {
		accepted, err := m.Add(seq, line(seq))
		if err != nil {
			t.Fatal(err)
		}
		if wantAccept := seq >= 2; accepted != wantAccept {
			t.Errorf("Add(%d) accepted = %v, want %v", seq, accepted, wantAccept)
		}
	}
	want := "first-0\nfirst-1\nline-2\nline-3\n"
	if buf.String() != want {
		t.Errorf("merged %q, want %q (first delivery wins, retry dedups)", buf.String(), want)
	}
	if m.Duplicates() != 2 {
		t.Errorf("duplicates = %d, want 2", m.Duplicates())
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
// Adds surface it instead of silently dropping lines.
func TestMergerLatchesWriteError(t *testing.T) {
	m := NewMerger(&failAfter{n: 1})
	if _, err := m.Add(0, line(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(1, line(1)); err == nil {
		t.Fatal("write failure not surfaced")
	}
	if _, err := m.Add(2, line(2)); err == nil || m.Err() == nil {
		t.Error("write failure not latched")
	}
}

// TestMergerConcurrentAdds hammers the merger from concurrent
// "shards" (with overlapping re-deliveries) and checks the output is
// one ordered, exactly-once sequence. Run with -race.
func TestMergerConcurrentAdds(t *testing.T) {
	const units = 200
	var buf bytes.Buffer
	m := NewMerger(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine delivers an overlapping slice, shuffled by
			// a fixed stride so arrivals interleave out of order.
			for i := 0; i < units; i++ {
				seq := (i*37 + w*13) % units
				m.Add(seq, line(seq))
			}
		}(w)
	}
	wg.Wait()
	if m.Written() != units || m.Pending() != 0 {
		t.Fatalf("written=%d pending=%d, want %d/0", m.Written(), m.Pending(), units)
	}
	var want bytes.Buffer
	for i := 0; i < units; i++ {
		want.Write(line(i))
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Error("concurrent merge is not the ordered exactly-once sequence")
	}
	if m.Duplicates() != 3*units {
		t.Errorf("duplicates = %d, want %d", m.Duplicates(), 3*units)
	}
}
