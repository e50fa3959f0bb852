package ityr

// Future is a handle to a value being computed by a forked thread — the
// low-level threading primitive §3.1 mentions ("Itoyori can dynamically
// spawn user-level threads by using low-level threading primitives such as
// futures"). ParallelInvoke and the patterns are built from the same
// fork/join pairs; Future adds a typed result channel for irregular code.
type Future[T any] struct {
	th  *Thread
	val *T
}

// Async forks fn as a child thread (Ctx.Fork: the scheduling policy
// decides whether the child or the caller runs on). The result is
// delivered through the future at Await.
func Async[T any](c *Ctx, fn func(*Ctx) T) Future[T] {
	f := Future[T]{val: new(T)}
	v := f.val
	f.th = c.Fork(func(c *Ctx) {
		*v = fn(c)
	})
	return f
}

// Await joins the forked thread and returns its result. As with any join,
// the calling thread may resume on a different rank. Await must be called
// exactly once, from the thread that called Async.
func (f Future[T]) Await(c *Ctx) T {
	c.Join(f.th)
	return *f.val
}
