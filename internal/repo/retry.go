package repo

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// RetryPolicy bounds how a Client retries requests that fail at the
// transport level (dial errors, dropped connections, per-request timeouts).
// Protocol-level rejections — an ERR response, a malformed frame — are never
// retried: the server answered, it just said no. Retries are budgeted per
// request: on a pipelined connection a transport failure is charged to the
// oldest unanswered request, and every answered reply resets the budget.
// The zero RetryPolicy performs no retries, preserving the pre-resilience
// behavior where one transient fault dropped the whole subtree for that
// sync (the paper's Side Effect 6 at its most pessimistic).
type RetryPolicy struct {
	// MaxRetries is the number of additional attempts after the first
	// failure (0: fail on the first transport error).
	MaxRetries int
	// BaseDelay is the backoff before the first retry (default 20ms). Each
	// subsequent retry doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 2s).
	MaxDelay time.Duration
	// Jitter randomizes each delay by ±Jitter fraction so synchronized
	// relying parties do not hammer a recovering repository in lockstep
	// (default 0.5; set negative for none).
	Jitter float64
}

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return 20 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return p.MaxDelay
}

func (p RetryPolicy) jitter() float64 {
	switch {
	case p.Jitter < 0:
		return 0
	case p.Jitter == 0:
		return 0.5
	default:
		return p.Jitter
	}
}

// delay computes the backoff before retry number attempt (0-based), with
// exponential growth and jitter. Jitter affects only timing, never results:
// the validated cache is a function of what the repository serves, not of
// when we asked.
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.baseDelay()
	for i := 0; i < attempt && d < p.maxDelay(); i++ {
		d *= 2
	}
	if d > p.maxDelay() {
		d = p.maxDelay()
	}
	if j := p.jitter(); j > 0 {
		f := 1 - j + 2*j*rand.Float64() //nolint:gosec // timing jitter only
		d = time.Duration(float64(d) * f)
	}
	return d
}

// wait sleeps the backoff for attempt, returning early with ctx.Err() if the
// context is canceled first.
func (p RetryPolicy) wait(ctx context.Context, attempt int) error {
	t := time.NewTimer(p.delay(attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// permanentError marks failures that retrying cannot fix: the server
// completed the exchange and rejected it at the protocol level.
type permanentError struct {
	err error
	// desync marks a reply whose framing was malformed: the connection's
	// byte stream no longer lines up with its requests, so the connection
	// must be dropped (the rejection itself still stands).
	desync bool
}

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// permanent wraps err as non-retryable: an ERR answer, after which the
// connection stays usable.
func permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// malformed wraps err as non-retryable and fatal to the connection: a reply
// the client could not frame, so whatever follows it on the wire may be the
// rest of this reply rather than the next one.
func malformed(err error) error {
	return &permanentError{err: err, desync: true}
}

// desynced reports whether err came from a malformed reply.
func desynced(err error) bool {
	var p *permanentError
	return errors.As(err, &p) && p.desync
}

// Retryable reports whether a fetch error is a transport-level failure worth
// retrying. Protocol rejections, open circuit breakers and context
// cancellation are not.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var p *permanentError
	if errors.As(err, &p) {
		return false
	}
	if errors.Is(err, ErrCircuitOpen) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}
