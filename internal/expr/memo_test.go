package expr

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// sameCompile reports how a memoised compile of src differs from an
// uncached one, or "" when they agree on rendering, variables and error.
func sameCompile(src string) string {
	got, gerr := Compile(src)
	want, werr := compile(src)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Sprintf("Compile(%q) error %v, uncached %v", src, gerr, werr)
	}
	if werr != nil {
		if got != nil {
			return fmt.Sprintf("Compile(%q) failed but returned an Expr", src)
		}
		return ""
	}
	if got.Source() != src || got.String() != want.String() || !slices.Equal(got.Vars(), want.Vars()) {
		return fmt.Sprintf("Compile(%q) = %q %v, uncached %q %v",
			src, got.String(), got.Vars(), want.String(), want.Vars())
	}
	return ""
}

// FuzzExprCompile checks that the memo never changes what Compile
// returns: first and repeat compiles both match an uncached compile.
func FuzzExprCompile(f *testing.F) {
	for _, s := range []string{
		"(1.1*ubatt)", "(0.7*UBATT)", "ubatt", "1,5e2", "min(1,5)", "max(a, b, 3)",
		"-(2+1)", "INF", "abs(-x)/2", "", "1+", "(1", "1..2", "@", "a,b", "abs(1,2)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for range 2 {
			if d := sameCompile(src); d != "" {
				t.Fatal(d)
			}
		}
	})
}

// TestCompileMemoAllocs pins the memo's point: compiling a source seen
// before allocates nothing.
func TestCompileMemoAllocs(t *testing.T) {
	MustCompile("(1.1*ubatt)")
	if got := testing.AllocsPerRun(100, func() { MustCompile("(1.1*ubatt)") }); got != 0 {
		t.Errorf("warm Compile allocates %v times, want 0", got)
	}
}

// TestCompileErrorNotMemoised checks that a failing source is compiled
// afresh, with the same error, every time.
func TestCompileErrorNotMemoised(t *testing.T) {
	_, first := Compile("1+")
	_, again := Compile("1+")
	if first == nil || fmt.Sprint(first) != fmt.Sprint(again) {
		t.Fatalf("Compile(\"1+\") errors %v then %v, want one error twice", first, again)
	}
	memo.Lock()
	_, cached := memo.m["1+"]
	memo.Unlock()
	if cached {
		t.Error("a failing source was memoised")
	}
}

// TestCompileMemoConcurrent compiles a fixed set of sources from 8
// goroutines while another pushes more than memoCap distinct sources
// through, so the memo flushes under the readers. Run it with -race.
func TestCompileMemoConcurrent(t *testing.T) {
	srcs := []string{"(1.1*ubatt)", "(0.7*ubatt)", "max(ubatt, 5)", "-x/2", "INF", "1+"}
	var wg sync.WaitGroup
	errs := make(chan string, 9)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range memoCap + memoCap/2 {
			if d := sameCompile("x*" + strconv.Itoa(i)); d != "" {
				errs <- d
				return
			}
		}
	}()
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 500 {
				for _, src := range srcs {
					if d := sameCompile(src); d != "" {
						errs <- d
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for d := range errs {
		t.Error(d)
	}
}
