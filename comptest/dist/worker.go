package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/comptest"
	"repro/comptest/serve"
	"repro/internal/version"
)

// WorkerOptions configures a Worker. Coordinator is required; every
// other zero value selects a default.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (e.g.
	// "http://127.0.0.1:8833").
	Coordinator string
	// Name is a human label shown in /v1/workers.
	Name string
	// Addr is the listen address for the worker's own job API
	// (default "127.0.0.1:0" — an ephemeral port).
	Addr string
	// AdvertiseURL is how the coordinator reaches this worker
	// (default "http://" + the bound address).
	AdvertiseURL string
	// Serve configures the local execution engine: Workers bounds the
	// shards this node executes concurrently and doubles as the
	// capacity advertised to the coordinator.
	Serve serve.Options
	// Logger, when non-nil, receives the worker's structured lifecycle
	// events (registration, re-registration after eviction). Job-level
	// events flow through Serve.Logger instead.
	Logger *slog.Logger

	// Test seams: an explicit version/protocol lets the handshake
	// tests exercise rejection paths.
	Version  string
	Protocol int
}

// Worker is one remote execution node: a full serve.Server (job API,
// queue, artifact cache) bound to its own listener, registered and
// heartbeating with a coordinator. `comptest worker -join URL` wraps
// exactly this. The worker is deliberately nothing but a serve engine
// plus a registration loop — every shard arrives as an ordinary job
// over the ordinary wire format, and the node's content-addressed
// cache means the campaign workbook is shipped N times but parsed
// once.
type Worker struct {
	opts   WorkerOptions
	srv    *serve.Server
	ln     net.Listener
	hs     *http.Server
	client *http.Client // worker→coordinator HTTP
	url    string

	mu    sync.Mutex
	id    string
	lease time.Duration

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	serveErr chan error
}

// StartWorker binds the worker's job API, registers with the
// coordinator (failing fast on a protocol mismatch or unreachable
// coordinator) and starts serving and heartbeating in the background.
// Callers own the returned Worker and must Close it (or use Wait).
func StartWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, fmt.Errorf("dist: worker needs a coordinator URL")
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.Version == "" {
		opts.Version = version.String()
	}
	if opts.Protocol == 0 {
		opts.Protocol = version.Protocol
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		opts:     opts,
		srv:      serve.New(opts.Serve),
		ln:       ln,
		client:   &http.Client{Timeout: 10 * time.Second},
		url:      opts.AdvertiseURL,
		stop:     make(chan struct{}),
		serveErr: make(chan error, 1),
	}
	if w.url == "" {
		w.url = "http://" + ln.Addr().String()
	}
	if err := w.register(); err != nil {
		w.srv.Close()
		ln.Close()
		return nil, err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.wg.Add(2)
	go func() {
		defer w.wg.Done()
		if err := w.hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			select {
			case w.serveErr <- err:
			default:
			}
		}
	}()
	go func() {
		defer w.wg.Done()
		w.heartbeatLoop()
	}()
	return w, nil
}

// capacity mirrors serve's worker-pool default: that bound is exactly
// how many shards this node can execute at once.
func (o WorkerOptions) capacity() int {
	if o.Serve.Workers >= 1 {
		return o.Serve.Workers
	}
	return 2
}

func (w *Worker) register() error {
	req := RegisterRequest{
		Name:     w.opts.Name,
		URL:      w.url,
		Version:  w.opts.Version,
		Protocol: w.opts.Protocol,
		Capacity: w.opts.capacity(),
		Kinds:    []string{serve.KindCampaign, serve.KindMutate, serve.KindExplore},
		DUTs:     comptest.DUTNames(),
		Stands:   comptest.StandNames(),
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := w.client.Post(w.opts.Coordinator+"/v1/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("dist: register with %s: %w", w.opts.Coordinator, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("dist: registration rejected (%d): %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return fmt.Errorf("dist: registration response: %w", err)
	}
	w.mu.Lock()
	w.id = rr.ID
	w.lease = time.Duration(rr.LeaseMillis) * time.Millisecond
	w.mu.Unlock()
	w.opts.Logger.Info("worker registered",
		"worker", rr.ID, "coordinator", w.opts.Coordinator, "url", w.url)
	return nil
}

// heartbeatPeriod is a third of the lease the coordinator granted, and
// at least 50 ms.
func (w *Worker) heartbeatPeriod() time.Duration {
	w.mu.Lock()
	lease := w.lease
	w.mu.Unlock()
	if p := lease / 3; p >= 50*time.Millisecond {
		return p
	}
	return 50 * time.Millisecond
}

// heartbeatLoop keeps the lease alive; a 404 (coordinator restarted,
// or this worker was evicted) triggers a re-registration under a
// fresh ID.
func (w *Worker) heartbeatLoop() {
	for {
		select {
		case <-w.stop:
			return
		case <-time.After(w.heartbeatPeriod()):
		}
		w.mu.Lock()
		id := w.id
		w.mu.Unlock()
		resp, err := w.client.Post(w.opts.Coordinator+"/v1/workers/"+id+"/heartbeat", "application/json", nil)
		if err != nil {
			continue // coordinator briefly unreachable; keep trying
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusNotFound {
			// Best effort: if re-registration fails too, the next tick
			// retries.
			_ = w.register()
		}
	}
}

// ID returns the coordinator-assigned worker ID.
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// URL returns the worker's advertised job-API base URL.
func (w *Worker) URL() string { return w.url }

// Server exposes the worker's local execution engine.
func (w *Worker) Server() *serve.Server { return w.srv }

// Wait blocks until ctx is cancelled or the worker's HTTP server
// fails, then shuts the worker down.
func (w *Worker) Wait(ctx context.Context) error {
	select {
	case err := <-w.serveErr:
		w.Close()
		return err
	case <-ctx.Done():
		w.Close()
		return nil
	}
}

// Close deregisters (best effort), stops the heartbeat, shuts the
// job API down and cancels in-flight shard executions through the
// engine. Idempotent and safe against concurrent Close/Kill.
func (w *Worker) Close() {
	first := false
	w.stopOnce.Do(func() { close(w.stop); first = true })
	if !first {
		return
	}
	w.mu.Lock()
	id := w.id
	w.mu.Unlock()
	if req, err := http.NewRequest(http.MethodDelete, w.opts.Coordinator+"/v1/workers/"+id, nil); err == nil {
		if resp, err := w.client.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	// Engine first: cancelling jobs closes their result logs, so shard
	// streams end at a terminal state instead of pinning Shutdown.
	w.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx)
	w.wg.Wait()
	w.client.CloseIdleConnections()
}

// Kill severs the worker abruptly — no deregistration, no graceful
// shutdown — simulating a crashed node whose lease the coordinator
// still believes in. Exists for requeue tests and demos; production
// crashes do this for free. A no-op after Close (and vice versa).
func (w *Worker) Kill() {
	first := false
	w.stopOnce.Do(func() { close(w.stop); first = true })
	if !first {
		return
	}
	w.hs.Close()
	w.srv.Close()
	w.wg.Wait()
}
