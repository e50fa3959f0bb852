//go:build go1.23

// The go1.23 tag lifts this one file to the language version that has
// package iter while go.mod still says 1.22 (see README.md, "Build").

package sim

import "iter"

// carrier is the coroutine a process body runs on. iter.Pull gives the pair
// of same-thread switches the kernel needs — next (driver → process) and
// yield (process → driver) go through the runtime's coroswitch, which swaps
// two goroutines on the running thread without a trip through the Go
// scheduler, a channel or a futex.
//
// A carrier outlives the bodies it runs: when one returns, the carrier
// parks itself in its engine's pool and the next first resume there takes
// it, grown stack and all, instead of paying for iter.Pull again. Run stops
// every pooled carrier before it returns. A carrier is 32 bytes, a size
// class that one padded to 64 measured 4% slower on a 4,096-rank fork-join
// (EXPERIMENTS.md, "Banked charges").
type carrier struct {
	proc  *Proc                // the process whose body runs at the next switch in; nil ends the coroutine
	next  func() (*Proc, bool) // driver side: switch in; returns what the process yielded
	yield func(*Proc) bool     // process side: switch back to the driver
	bank  *chargeList          // nil until proc, or a process before it, banked two sleeps
}

// chargeList holds the sleeps a process has banked (Proc.Charge) after the
// first, which is Proc.head, or is replaying, in order; taken counts the
// ones handed out. fx holds the effects deferred into the bank (Proc.Defer),
// in order, each behind the sleeps banked before it; ran counts the ones
// applied.
type chargeList struct {
	d     []Time
	taken int
	fx    []deferred
	ran   int
}

// deferred is an effect of a bank and its place: after is how many of the
// list's sleeps precede it, besides the head.
type deferred struct {
	after int
	e     Effect
}

// charges returns c's list, made on first use; it stays with the carrier.
func (c *carrier) charges() *chargeList {
	if c.bank == nil {
		c.bank = new(chargeList)
	}
	return c.bank
}

func newCarrier() *carrier {
	c := new(carrier)
	// The coroutine ends when its loop returns (stopAll), so it never needs
	// iter.Pull's stop.
	c.next, _ = iter.Pull(c.loop)
	return c
}

// loop is the carrier's coroutine: one body per iteration, each followed by
// a yield naming the process its exit dispatched to. A body that panics or
// calls runtime.Goexit ends the coroutine, and iter.Pull re-raises either
// on the goroutine that called next — the driver.
func (c *carrier) loop(yield func(*Proc) bool) {
	c.yield = yield
	for p := c.proc; p != nil; p = c.proc {
		p.body(p)
		yield(p.exit())
	}
}

// carrierPool holds an engine's idle carriers.
type carrierPool []*carrier

// stopAll ends every pooled carrier's coroutine: switched in with no
// process, its loop returns.
func (cp *carrierPool) stopAll() {
	for _, c := range *cp {
		c.proc = nil
		c.next()
	}
	*cp = nil
}

// resume switches from the calling driver into p, runs it until it yields
// and returns the process it handed to: nil when its dispatch found nothing
// more to run. A process resumed for the first time gets a pooled carrier,
// or a new one.
func (p *Proc) resume() *Proc {
	c := p.car
	if c == nil {
		if pool := p.eng.pool; len(pool) > 0 {
			c = pool[len(pool)-1]
			p.eng.pool = pool[:len(pool)-1]
		} else {
			c = newCarrier()
		}
		c.proc, p.car = p, c
	}
	q, _ := c.next()
	return q
}

// release parks the carrier of p, whose body has returned, in the pool.
func (p *Proc) release() {
	c := p.car
	c.proc, p.car = nil, nil
	p.eng.pool = append(p.eng.pool, c)
}
