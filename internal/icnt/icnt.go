// Package icnt models the on-chip crossbar connecting GPU cores to the
// memory partitions (Table I: one crossbar per direction).
//
// The model captures the two properties that matter for the paper's
// contention study: a fixed traversal latency, and per-output-port
// serialization — each output port delivers flits at one flit per cycle, so
// data-bearing messages (write requests, read replies) occupy a port for
// several cycles and back-pressure builds when many cores target the same
// partition. Switch-internal arbitration (iSLIP) is abstracted away; the
// output port is the bottleneck it converges to.
package icnt

import (
	"fmt"
	"math"

	"ebm/internal/mem"
)

type pkt struct {
	readyAt uint64
	req     *mem.Request
}

// fifo is a slice-backed queue with an explicit head index so dequeues are
// O(1) without losing the backing array.
type fifo struct {
	items []pkt
	head  int
}

func (f *fifo) push(p pkt) { f.items = append(f.items, p) }

func (f *fifo) len() int { return len(f.items) - f.head }

func (f *fifo) peek() *pkt {
	if f.len() == 0 {
		return nil
	}
	return &f.items[f.head]
}

func (f *fifo) pop() pkt {
	p := f.items[f.head]
	f.items[f.head].req = nil // release for GC
	f.head++
	if f.head == len(f.items) {
		f.items = f.items[:0]
		f.head = 0
	} else if f.head > 1024 && f.head*2 > len(f.items) {
		n := copy(f.items, f.items[f.head:])
		f.items = f.items[:n]
		f.head = 0
	}
	return p
}

// Network is one direction of the crossbar: any input port to any of the
// dsts output ports.
type Network struct {
	latency   int
	flitBytes int
	lineBytes int
	queues    []fifo   // per destination, ordered by readyAt
	portFree  []uint64 // per destination, first cycle the port is free
	inFlight  int

	// nextReady is a lower bound on every queue head's readyAt: Push
	// lowers it and a PopReady pass recomputes it (a Pop leaves it low,
	// which is still a bound). It is derived and never serialized.
	nextReady uint64
}

// New builds one crossbar direction with dsts output ports. latency is the
// zero-load traversal time in cycles; flitBytes and lineBytes size the
// occupancy of data-bearing messages.
func New(dsts, latency, flitBytes, lineBytes int) *Network {
	if dsts <= 0 || latency < 0 || flitBytes <= 0 || lineBytes <= 0 {
		panic(fmt.Sprintf("icnt: invalid parameters dsts=%d latency=%d flit=%d line=%d",
			dsts, latency, flitBytes, lineBytes))
	}
	return &Network{
		latency:   latency,
		flitBytes: flitBytes,
		lineBytes: lineBytes,
		queues:    make([]fifo, dsts),
		portFree:  make([]uint64, dsts),
		nextReady: math.MaxUint64,
	}
}

// Push injects req toward output port dst at cycle now. Delivery time
// accounts for traversal latency and for serialization behind earlier
// traffic to the same port. Push must be called with non-decreasing now.
func (n *Network) Push(dst int, req *mem.Request, now uint64) {
	flits := uint64(req.Flits(n.flitBytes, n.lineBytes))
	arrive := now + uint64(n.latency)
	start := arrive
	if n.portFree[dst] > start {
		start = n.portFree[dst]
	}
	done := start + flits - 1
	n.portFree[dst] = done + 1
	n.queues[dst].push(pkt{readyAt: done, req: req})
	n.inFlight++
	n.nextReady = min(n.nextReady, done)
}

// Pop removes and returns the next message available at output port dst by
// cycle now, or nil if none has arrived yet.
func (n *Network) Pop(dst int, now uint64) *mem.Request {
	q := &n.queues[dst]
	head := q.peek()
	if head == nil || head.readyAt > now {
		return nil
	}
	p := q.pop()
	n.inFlight--
	return p.req
}

// PopReady makes one pass over the output ports in order, popping every
// head available by cycle now whose port accept admits (nil admits all)
// and handing it to deliver. The pass recomputes the next-ready bound
// from the heads it leaves behind.
func (n *Network) PopReady(now uint64, accept func(dst int) bool, deliver func(dst int, req *mem.Request)) {
	n.nextReady = math.MaxUint64
	for d := range n.queues {
		q := &n.queues[d]
		head := q.peek()
		if head == nil {
			continue
		}
		if head.readyAt <= now && (accept == nil || accept(d)) {
			n.inFlight--
			deliver(d, q.pop().req)
			if head = q.peek(); head == nil {
				continue
			}
		}
		n.nextReady = min(n.nextReady, head.readyAt)
	}
}

// NextReady returns a lower bound on the first cycle any message becomes
// available at any output port (math.MaxUint64 when the network is
// empty): no pop before it returns a message.
func (n *Network) NextReady() uint64 { return n.nextReady }

// Pending returns the number of messages queued for output port dst.
func (n *Network) Pending(dst int) int { return n.queues[dst].len() }

// InFlight returns the total number of messages inside the network.
func (n *Network) InFlight() int { return n.inFlight }

// PortBusyUntil returns the first cycle output port dst will be idle; used
// by tests and by congestion telemetry.
func (n *Network) PortBusyUntil(dst int) uint64 { return n.portFree[dst] }
