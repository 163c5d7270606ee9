package engine

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// This file is the engine's panic-isolation layer. A panic anywhere in the
// evaluation hot paths — arena growth, index probes, worker joins, rule
// compilation — must fail the one evaluation that hit it, not the process
// hosting thousands of others. Every entry point into evaluator code runs
// behind a recover barrier that converts panics into a typed *PanicError
// wrapping ErrInternal, carrying the panic value and stack for the caller's
// logs. A panic inside a parallel worker additionally triggers graceful
// degradation: Eval retries the evaluation once sequentially (the parallel
// machinery — shared frozen indexes, buffer merges — is the most likely
// culprit) before giving up.

// ErrInternal is returned (wrapped by *PanicError) when evaluation or plan
// compilation panics. The process survives; the evaluation's DB is left in
// a memory-safe but incomplete state and should be discarded. Callers test
// with errors.Is and can reach the stack via errors.As(*PanicError).
var ErrInternal = errors.New("engine: internal error")

// PanicError is a recovered panic: the site that caught it, the panic
// value, and the goroutine stack at recovery. It wraps ErrInternal.
type PanicError struct {
	// Where names the recovery barrier: "compile", "eval" (sequential,
	// either schedule), "parallel" (coordinator), "worker", "load",
	// "apply" and "base" (materialization maintenance), or "refresh" (the
	// pipeline's materialization registry).
	Where string
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%v: panic in %s: %v", ErrInternal, e.Where, e.Value)
}

func (e *PanicError) Unwrap() error { return ErrInternal }

// newPanicError captures the recovered value v at barrier where.
func newPanicError(where string, v any) *PanicError {
	return &PanicError{Where: where, Value: v, Stack: debug.Stack()}
}

// recoverTo is the deferred half of a recovery barrier: it converts an
// in-flight panic into a *PanicError stored in *err (replacing any error
// the function was about to return — the panic is strictly worse news).
func recoverTo(where string, err *error) {
	if r := recover(); r != nil {
		*err = newPanicError(where, r)
	}
}

// workerPanicked reports whether err is a recovered parallel-worker panic,
// the one failure class Eval degrades to sequential evaluation for.
func workerPanicked(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe) && pe.Where == "worker"
}
