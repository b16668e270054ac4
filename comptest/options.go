package comptest

import "fmt"

// Option configures a Runner. Options are applied in order by
// NewRunner; the first failing option aborts construction.
type Option func(*Runner) error

// WithStand selects a registered stand profile by name as the Runner's
// default stand. The name is resolved immediately, so a typo fails at
// construction rather than at run time.
func WithStand(name string) Option {
	return func(r *Runner) error {
		if err := CheckStand(name); err != nil {
			return err
		}
		r.standName = name
		return nil
	}
}

// WithDUT selects a registered ECU model by name as the Runner's
// default DUT. Each execution unit gets an exclusively owned instance.
func WithDUT(name string) Option {
	return func(r *Runner) error {
		if !dutRegistered(name) {
			return fmt.Errorf("comptest: unknown DUT %q (have %v)", name, DUTNames())
		}
		r.dutName = name
		return nil
	}
}

// WithParallelism bounds the Campaign worker pool to n concurrent
// executions. The default is 1 (sequential).
func WithParallelism(n int) Option {
	return func(r *Runner) error {
		if n < 1 {
			return fmt.Errorf("comptest: parallelism must be >= 1, got %d", n)
		}
		r.parallel = n
		return nil
	}
}

// WithoutStandPool disables stand reuse across campaign units: every
// unit gets a freshly built stand, as before the pool existed. The
// pool never changes a report byte (the equivalence tests compare both
// modes), so this is a debugging aid, not a correctness switch.
func WithoutStandPool() Option {
	return func(r *Runner) error {
		r.noPool = true
		return nil
	}
}

// WithSink adds a result sink. Sinks receive every Result as it
// completes; the Runner serialises Emit calls, so sinks need no
// locking of their own. The option may be repeated.
func WithSink(s Sink) Option {
	return func(r *Runner) error {
		if s == nil {
			return fmt.Errorf("comptest: WithSink needs a non-nil sink")
		}
		r.sinks = append(r.sinks, s)
		return nil
	}
}
