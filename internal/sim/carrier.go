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
// every pooled carrier before it returns.
type carrier struct {
	proc  *Proc                // the process whose body runs at the next switch in
	next  func() (*Proc, bool) // driver side: switch in; returns what the process yielded
	stop  func()               // ends an idle carrier's coroutine
	yield func(*Proc) bool     // process side: switch back to the driver
}

func newCarrier() *carrier {
	c := new(carrier)
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// loop is the carrier's coroutine: one body per iteration, each followed by
// a yield naming the process its exit dispatched to. A body that panics or
// calls runtime.Goexit ends the coroutine, and iter.Pull re-raises either
// on the goroutine that called next — the driver.
func (c *carrier) loop(yield func(*Proc) bool) {
	c.yield = yield
	for {
		p := c.proc
		p.body(p)
		if !yield(p.exit()) {
			return
		}
	}
}

// carrierPool holds an engine's idle carriers.
type carrierPool []*carrier

// stopAll ends every pooled carrier's coroutine.
func (cp *carrierPool) stopAll() {
	for _, c := range *cp {
		c.stop()
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
