package report

import (
	"slices"
	"testing"
)

// TestSequencerSkip: a skipped run releases the values behind it at
// once; Drain passes over a gap nobody filled or skipped.
func TestSequencerSkip(t *testing.T) {
	var out []int
	s := NewSequencer(0, func(v int) error {
		out = append(out, v)
		return nil
	})
	for _, seq := range []int{0, 3, 4, 7, 8} {
		s.Add(seq, seq)
	}
	s.Skip(1, 3)
	if want := []int{0, 3, 4}; !slices.Equal(out, want) {
		t.Errorf("after Skip(1, 3) released %v, want %v", out, want)
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d behind the gap at 5, want 2", s.Pending())
	}
	s.Drain()
	if want := []int{0, 3, 4, 7, 8}; !slices.Equal(out, want) || s.Pending() != 0 {
		t.Errorf("after Drain released %v (pending %d), want %v", out, s.Pending(), want)
	}
	for _, seq := range []int{5, 8} {
		if accepted, _ := s.Add(seq, seq); accepted {
			t.Errorf("Add(%d) below the drained cursor accepted", seq)
		}
	}
}

// FuzzSequencer feeds an arbitrary arrival order with duplicates, a
// floor and skipped runs. Seqs live in [0, 64); bit i of skipMask
// marks seq i as never added, and its maximal runs (split at multiples
// of 8, so runs can abut) are Skipped, one per arrival of a skipped seq
// in order. After every call the released values must be exactly the
// delivered seqs below the contiguous frontier, in order, first
// delivery winning; after Drain, every delivered seq ≥ floor. The
// seed corpus is in testdata/fuzz/FuzzSequencer.
func FuzzSequencer(f *testing.F) {
	f.Fuzz(func(t *testing.T, floorB uint8, skipMask uint64, order []byte) {
		const universe = 64
		floor := int(floorB % 16)
		skipped := func(seq int) bool { return skipMask>>seq&1 == 1 }
		var runs [][2]int
		for seq := 0; seq < universe; {
			if !skipped(seq) {
				seq++
				continue
			}
			from := seq
			for seq++; seq < universe && skipped(seq) && seq%8 != 0; seq++ {
			}
			runs = append(runs, [2]int{from, seq})
		}

		type delivery struct{ seq, idx int }
		var out []delivery
		s := NewSequencer(floor, func(d delivery) error {
			out = append(out, d)
			return nil
		})
		first := map[int]int{} // accepted seq → index of its first delivery
		var covered [universe]bool
		released := func() []delivery {
			var want []delivery
			for c := floor; c < universe; c++ {
				if i, ok := first[c]; ok {
					want = append(want, delivery{c, i})
				} else if !covered[c] {
					break
				}
			}
			return want
		}
		for i, b := range order {
			seq := int(b % universe)
			if skipped(seq) {
				if len(runs) > 0 {
					r := runs[0]
					runs = runs[1:]
					for c := r[0]; c < r[1]; c++ {
						covered[c] = true
					}
					if err := s.Skip(r[0], r[1]); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				_, dup := first[seq]
				want := seq >= floor && !dup
				accepted, err := s.Add(seq, delivery{seq, i})
				if err != nil || accepted != want {
					t.Fatalf("op %d: Add(%d) = %v, %v; want %v", i, seq, accepted, err, want)
				}
				if want {
					first[seq] = i
				}
			}
			if want := released(); !slices.Equal(out, want) {
				t.Fatalf("op %d: released %v, want %v", i, out, want)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		var want []delivery
		for c := floor; c < universe; c++ {
			if i, ok := first[c]; ok {
				want = append(want, delivery{c, i})
			}
		}
		if !slices.Equal(out, want) || s.Pending() != 0 {
			t.Fatalf("after Drain released %v (pending %d), want %v", out, s.Pending(), want)
		}
	})
}

// TestSequencerInOrderAllocsNothing: a value released in order never
// enters the pending map, which stores values over 128 bytes — such as
// comptest.Result — indirectly, one allocation per insert.
func TestSequencerInOrderAllocsNothing(t *testing.T) {
	type result [17]uint64 // 136 bytes, the size of comptest.Result
	released := 0
	s := NewSequencer(0, func(result) error {
		released++
		return nil
	})
	seq := 0
	allocs := testing.AllocsPerRun(100, func() {
		s.Add(seq, result{})
		seq++
	})
	if allocs != 0 {
		t.Errorf("in-order Add allocates %v objects per call, want 0", allocs)
	}
	if released != seq || s.Pending() != 0 {
		t.Errorf("released %d of %d (pending %d)", released, seq, s.Pending())
	}
}

// seqSink keeps each Sequencer TestNewSequencerInOrderAllocsOne builds
// reachable, so escape analysis cannot move it or its maps onto the
// stack and the count below is the heap's.
var seqSink *Sequencer[int]

// TestNewSequencerInOrderAllocsOne: a Sequencer that only ever sees
// its values in order costs the one object of the Sequencer itself;
// its maps are made by the first out-of-order Add or non-empty Skip.
// Exploration builds one Ordered sink per campaign, most of one unit.
func TestNewSequencerInOrderAllocsOne(t *testing.T) {
	release := func(int) error { return nil }
	allocs := testing.AllocsPerRun(100, func() {
		s := NewSequencer(0, release)
		for seq := range 4 {
			s.Add(seq, seq)
		}
		s.Skip(2, 4) // empty: below the cursor
		s.Drain()
		seqSink = s
	})
	if allocs != 1 {
		t.Errorf("an in-order Sequencer allocates %v objects, want 1", allocs)
	}
}
