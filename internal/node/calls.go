package node

import (
	"sort"
	"time"

	"groupcast/internal/wire"
)

// This file is the loop's call table, the one place a node waits: a flow
// that needs a reply or a pause registers a call and continues in the
// callback the loop runs when the reply or the deadline arrives. The table
// belongs to the loop, so nothing here locks but the API reader.

// call is one entry of the table. onReply (nil for an after entry) handles
// one reply and reports whether the call is finished; an unfinished call
// takes more replies until its deadline.
type call struct {
	deadline  time.Time
	onReply   func(wire.Message) bool
	onTimeout func()
}

// ask stamps msg with the next ReqID, sends it to every address in to, and
// waits up to wait for the replies. When no send succeeds the call fails at
// once: onTimeout runs before ask returns.
func (n *Node) ask(to []string, msg wire.Message, wait time.Duration, onReply func(wire.Message) bool, onTimeout func()) {
	msg.ReqID = n.after(wait, onTimeout)
	n.calls[msg.ReqID].onReply = onReply
	sent := false
	for _, addr := range to {
		sent = n.send(addr, msg) == nil || sent
	}
	if !sent {
		delete(n.calls, msg.ReqID)
		onTimeout()
	}
}

// after runs f on the loop once d has passed and returns the entry's ReqID.
func (n *Node) after(d time.Duration, f func()) uint64 {
	n.reqSeq++
	c := &call{deadline: time.Now().Add(d), onTimeout: f}
	n.calls[n.reqSeq] = c
	if c.deadline.Before(n.armed) {
		n.armed = c.deadline
		n.timer.Reset(d)
	}
	return n.reqSeq
}

// answer hands a reply to the call its ReqID names. A reply no call waits
// for — late, duplicate, or for an ID never issued — is dropped.
func (n *Node) answer(msg wire.Message) {
	c := n.calls[msg.ReqID]
	if c == nil || c.onReply == nil {
		return
	}
	if c.onReply(msg) {
		delete(n.calls, msg.ReqID)
	}
}

// fireDue times out every call whose deadline has passed, in (deadline,
// ReqID) order, so the firing order follows from the inputs and not from
// map iteration. Calls registered while firing wait for the next wake.
func (n *Node) fireDue(now time.Time) {
	var due []uint64
	for id, c := range n.calls {
		if !c.deadline.After(now) {
			due = append(due, id)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		a, b := n.calls[due[i]].deadline, n.calls[due[j]].deadline
		return a.Before(b) || a.Equal(b) && due[i] < due[j]
	})
	for _, id := range due {
		c := n.calls[id]
		delete(n.calls, id)
		c.onTimeout()
	}
}

// PendingRequests reports how many calls the table holds (leak tests and
// the pending_requests gauge).
func (n *Node) PendingRequests() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.calls)
}

// post hands f to the loop, returning once the loop has taken it or with
// ErrClosed once the node stopped. It is for API goroutines only, with n.mu
// not held — the loop runs f under it: code on the loop starts its flows
// directly.
func (n *Node) post(f func()) error {
	select {
	case n.posts <- f:
		return nil
	case <-n.stop:
		return ErrClosed
	}
}

// await runs flow on the loop and blocks the calling API goroutine — the
// only goroutine that waits — until the flow reports its result through
// done, which it must call exactly once, or the node stops.
func (n *Node) await(flow func(done func(error))) error {
	res := make(chan error, 1)
	if err := n.post(func() { flow(func(err error) { res <- err }) }); err != nil {
		return err
	}
	select {
	case err := <-res:
		return err
	case <-n.stop:
		return ErrClosed
	}
}
