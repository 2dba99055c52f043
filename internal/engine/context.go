package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// This file is the serving-node entry point into batch execution:
// ExecuteBatchContext adds the two robustness properties a long-running
// front-end needs on top of ExecuteBatch — cooperative cancellation
// (per-request deadlines propagate into the batch, so an abandoned request
// stops consuming index time) and panic isolation (a query that trips a bug
// in the index becomes that query's error result instead of killing the
// process). Both are threaded through the batched query planner via execCtx,
// so planned execution keeps its batched segments under a deadline.

// ErrCanceled reports a query that was not executed because its batch's
// context was canceled before the engine reached it. The Result.Err of such
// a query also matches the context error (errors.Is against
// context.Canceled or context.DeadlineExceeded tells which).
var ErrCanceled = errors.New("engine: query not executed (batch context canceled)")

// PanicError is the Result.Err of a query whose execution panicked inside a
// batch run with panic isolation (ExecuteBatchContext). The engine recovered
// the panic on the query's behalf: the process and the other queries of the
// batch are unaffected, and the captured value and stack identify the bug.
//
// A recovered panic in a read leaves the index intact (the read paths only
// write pooled per-query scratch). A recovered panic in an object update may
// leave the single-writer update log poisoned — reads keep serving either
// way, which is the degradation a serving node wants.
type PanicError struct {
	// Value is the value the query panicked with.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: query panicked: %v", p.Value)
}

// execCtx is the execution context threaded through one batch: an optional
// cancellation context and whether panics are isolated per query. The zero
// value (ExecuteBatch) checks nothing and lets panics propagate.
type execCtx struct {
	ctx  context.Context // nil: never canceled
	safe bool            // recover panics into *PanicError results
}

// canceled reports whether the batch's context is done. It is called from
// pooled worker goroutines; context.Context is safe for concurrent use.
func (ec *execCtx) canceled() bool {
	if ec.ctx == nil {
		return false
	}
	select {
	case <-ec.ctx.Done():
		return true
	default:
		return false
	}
}

// cancelErr builds the Result.Err for a query skipped by cancellation.
func (ec *execCtx) cancelErr() error {
	return errors.Join(ErrCanceled, ec.ctx.Err())
}

// guard runs fn, recovering a panic into a *PanicError in safe mode. In
// unsafe mode the panic propagates to the caller unchanged.
func (ec *execCtx) guard(fn func()) (perr *PanicError) {
	if !ec.safe {
		fn()
		return nil
	}
	defer func() {
		if v := recover(); v != nil {
			perr = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// ExecuteBatchContext runs the batch like ExecuteBatch, under the context's
// deadline and with per-query panic isolation — the entry point a serving
// front-end uses. Cancellation is cooperative at query granularity (and at
// segment granularity inside the batched planner): queries the engine has
// not reached when the context fires are returned unexecuted with a
// Result.Err matching both ErrCanceled and the context error, while queries
// already executing run to completion. A panicking query yields a
// *PanicError result instead of crashing the process; see PanicError for
// what state it can poison. Results are positionally identical to
// ExecuteBatch for every query that executes.
func (e *Engine) ExecuteBatchContext(ctx context.Context, queries []Query) []Result {
	return e.executeBatch(execCtx{ctx: ctx, safe: true}, queries)
}

// executeOne runs one query of a batch under the batch's execution context.
func (e *Engine) executeOne(ec *execCtx, q Query) (r Result) {
	if ec.canceled() {
		return Result{Err: ec.cancelErr()}
	}
	if perr := ec.guard(func() { r = e.Execute(q) }); perr != nil {
		return Result{Err: perr}
	}
	return r
}
