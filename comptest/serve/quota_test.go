package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTenantQuota drives the per-tenant admission path end to end on a
// pinned clock: rate-limit and active-cap rejections answer 429 with a
// Retry-After hint, other tenants are unaffected, finished jobs return
// their slots, and refilled tokens re-admit — all without touching the
// queue's 503 admission.
func TestTenantQuota(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1754000000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	release := make(chan struct{})
	// Finished fires after the job's quota slot is released; the state
	// already reads done a moment before that. Buffered for more jobs
	// than the test submits, so the hook never blocks a worker.
	finished := make(chan string, 8)
	s := New(Options{
		Now:   clock,
		Quota: QuotaOptions{MaxActive: 2, RatePerSec: 1, Burst: 1},
		Hooks: Hooks{Finished: func(st JobStatus) { finished <- st.ID }},
		Executor: func(ctx context.Context, ex Execution) (string, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return "green", nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	submit := func(tenant string) (code int, retryAfter string, st JobStatus) {
		t.Helper()
		body := fmt.Sprintf(`{"kind":"campaign","workbook_name":"central_locking","tenant":%q}`, tenant)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, resp.Header.Get("Retry-After"), st
	}

	// Burst of 1: the first submission drains acme's bucket.
	code, _, first := submit("acme")
	if code != http.StatusAccepted {
		t.Fatalf("first acme submit: status %d", code)
	}
	if first.Tenant != "acme" {
		t.Errorf("job status tenant = %q, want acme", first.Tenant)
	}

	// Same instant, same tenant: rate-limited, told when to come back.
	code, ra, _ := submit("acme")
	if code != http.StatusTooManyRequests {
		t.Fatalf("rate-limited submit: status %d, want 429", code)
	}
	if ra != "1" {
		t.Errorf("rate-limited Retry-After = %q, want \"1\"", ra)
	}

	// Quota is per tenant: umbrella's own bucket is untouched.
	if code, _, _ := submit("umbrella"); code != http.StatusAccepted {
		t.Fatalf("other tenant submit: status %d", code)
	}

	// A refilled token re-admits — and brings acme to its active cap.
	advance(1500 * time.Millisecond)
	code, _, second := submit("acme")
	if code != http.StatusAccepted {
		t.Fatalf("refilled submit: status %d", code)
	}

	// Token available again, but two acme jobs are still active.
	advance(1500 * time.Millisecond)
	code, ra, _ = submit("acme")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-active submit: status %d, want 429", code)
	}
	if ra != "1" {
		t.Errorf("active-cap Retry-After = %q, want \"1\"", ra)
	}

	// Finished jobs hand their slots back.
	close(release)
	timeout := time.After(5 * time.Second)
	for pending := map[string]bool{first.ID: true, second.ID: true}; len(pending) > 0; {
		select {
		case id := <-finished:
			delete(pending, id)
		case <-timeout:
			t.Fatalf("acme jobs never finished: %v", pending)
		}
	}
	advance(2 * time.Second)
	if code, _, _ := submit("acme"); code != http.StatusAccepted {
		t.Fatalf("submit after slots freed: status %d", code)
	}

	// Both rejections are on the counter.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), MetricQuotaRejected+" 2") {
		t.Errorf("metrics lack %s 2:\n%s", MetricQuotaRejected, grepFamily(string(text), MetricQuotaRejected))
	}
}

// grepFamily pulls one metric family's lines out of an exposition for
// a readable failure message.
func grepFamily(text, name string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
