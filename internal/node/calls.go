package node

import (
	"sort"
	"time"

	"groupcast/internal/wire"
)

// This file is the loop's call table, the one place a node waits and the
// one thing that sets its timer: a flow that needs a reply or a pause
// registers a call and continues in the callback the loop runs when the reply
// or the deadline arrives, and the periodic duties re-arm themselves. The
// table belongs to the loop. post and await, at the end, are how API calls
// reach the loop.

// call is one entry of the table. onReply (nil for an after entry) handles
// one reply and reports whether the call is finished; an unfinished call
// takes more replies until its deadline. duty marks a periodic duty, which
// the pending_requests gauge does not count. scope is the ReqID of the
// deadline of the Join the call waits for (see join), 0 for any other flow:
// a call registered while n.scope is set carries it, and its callbacks run
// with it set, so the calls they register carry it too.
type call struct {
	deadline  time.Time
	onReply   func(wire.Message) bool
	onTimeout func()
	duty      bool
	scope     uint64
}

// dropScope removes every call that carries scope s, so nothing its Join
// waits on runs after it ended.
func (n *Node) dropScope(s uint64) {
	for id, c := range n.calls {
		if c.scope == s {
			delete(n.calls, id)
		}
	}
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
	c := &call{deadline: n.now.Add(d), onTimeout: f, scope: n.scope}
	n.calls[n.reqSeq] = c
	n.arm(c.deadline)
	return n.reqSeq
}

// duty is after for the node's own upkeep, not a wait some flow is in.
func (n *Node) duty(d time.Duration, f func()) {
	n.calls[n.after(d, f)].duty = true
}

// every runs f on the loop every d, re-arming one period after each run.
func (n *Node) every(d time.Duration, f func()) {
	n.duty(d, func() {
		n.every(d, f)
		f()
	})
}

// arm sets the loop timer for deadline unless it is set for an earlier one;
// a zero n.armed means the timer is not set.
func (n *Node) arm(deadline time.Time) {
	if n.armed.IsZero() || deadline.Before(n.armed) {
		n.armed = deadline
		n.timer.Reset(deadline.Sub(n.now))
	}
}

// answer hands a reply to the call its ReqID names. A reply no call waits
// for — late, duplicate, or for an ID never issued — is dropped.
func (n *Node) answer(msg wire.Message) {
	c := n.calls[msg.ReqID]
	if c == nil || c.onReply == nil {
		return
	}
	n.scope = c.scope
	finished := c.onReply(msg)
	n.scope = 0
	if finished {
		delete(n.calls, msg.ReqID)
	}
}

// fireDue is a timer wake: it arms the timer for the earliest deadline still
// ahead and times out every call whose deadline has passed, in (deadline,
// ReqID) order, so the firing order follows from the inputs and not from map
// iteration. Calls registered while firing wait for the next wake; a call
// an earlier one's callback dropped (dropScope) does not fire.
func (n *Node) fireDue() {
	var due []uint64
	n.armed = time.Time{} // the timer fired
	for id, c := range n.calls {
		if c.deadline.After(n.now) {
			n.arm(c.deadline)
		} else {
			due = append(due, id)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		a, b := n.calls[due[i]].deadline, n.calls[due[j]].deadline
		return a.Before(b) || a.Equal(b) && due[i] < due[j]
	})
	for _, id := range due {
		if c := n.calls[id]; c != nil {
			delete(n.calls, id)
			n.scope = c.scope
			c.onTimeout()
			n.scope = 0
		}
	}
}

// pendingRequests reports how many replies and backoffs the table holds —
// every call but the duties (the pending_requests gauge).
func (n *Node) pendingRequests() int {
	pending := 0
	for _, c := range n.calls {
		if !c.duty {
			pending++
		}
	}
	return pending
}

// post runs body on the loop as one event and returns once it has run.
// Every exported method that touches node state goes through post or
// await; before Start, and once the loop has stopped, there is no loop and
// body runs on the caller. Code on the loop never posts: it would wait for
// itself. On a driven node the cluster runs body as one event at its time.
func (n *Node) post(body func()) {
	if n.vt != nil {
		n.vt.post(body)
		return
	}
	select {
	case <-n.live:
	default:
		body()
		return
	}
	ran := make(chan struct{})
	select {
	case n.posts <- func() { body(); close(ran) }:
		<-ran
	case <-n.exited:
		body()
	}
}

// await is post for the flows that wait for replies (Bootstrap, Join): it
// runs flow on the loop and waits until the flow reports its result through
// done, which it must call exactly once, or until the loop stops
// (ErrClosed). A flow that cannot run — the node not started, or closed —
// must call done before it returns. On a driven node the wait is the
// cluster stepping its heap.
func (n *Node) await(flow func(done func(error))) error {
	res := make(chan error, 1)
	n.post(func() { flow(func(err error) { res <- err }) })
	if n.vt != nil {
		return n.vt.await(res)
	}
	select {
	case err := <-res:
		return err
	case <-n.exited:
		select {
		case err := <-res:
			return err
		default:
			return ErrClosed
		}
	}
}
