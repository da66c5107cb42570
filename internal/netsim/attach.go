package netsim

import (
	"errors"
	"math/rand"
)

// PeerID indexes an attached end host (peer). Peers are numbered 0..N-1 by
// the Attachment that created them.
type PeerID int32

// Attachment maps peers onto stub routers with individual access-link
// latencies, modelling end hosts hanging off the transit-stub core.
type Attachment struct {
	nw        *Network
	router    []RouterID
	accessLat []float64
}

// AccessLatencyRange is the default last-mile latency for attached peers.
var AccessLatencyRange = LatencyRange{Lo: 1, Hi: 5}

// Attach places n peers on uniformly random stub routers, each with an access
// latency drawn from lat. A nil network or non-positive n is an error.
func Attach(nw *Network, n int, lat LatencyRange, rng *rand.Rand) (*Attachment, error) {
	if nw == nil {
		return nil, errors.New("netsim: nil network")
	}
	if n <= 0 {
		return nil, errors.New("netsim: need at least one peer")
	}
	stubs := nw.stubRouters
	a := &Attachment{
		nw:        nw,
		router:    make([]RouterID, n),
		accessLat: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		a.router[i] = stubs[rng.Intn(len(stubs))]
		a.accessLat[i] = lat.sample(rng)
	}
	return a, nil
}

// NumPeers returns how many peers are attached.
func (a *Attachment) NumPeers() int { return len(a.router) }

// Network returns the underlying router topology.
func (a *Attachment) Network() *Network { return a.nw }

// Distance returns the end-to-end unicast latency between two peers in ms:
// both access links plus the shortest router path. The distance from a peer
// to itself is zero.
func (a *Attachment) Distance(p, q PeerID) float64 {
	if p == q {
		return 0
	}
	return a.accessLat[p] + a.nw.RouterDistance(a.router[p], a.router[q]) + a.accessLat[q]
}

// accessLink encodes peer p's access link with a negative pseudo-router ID so
// it can be tallied alongside router-router links in stress accounting.
func accessLink(p PeerID, r RouterID) Link {
	return Link{A: RouterID(-int32(p) - 1), B: r}
}

// PathLinks returns every physical link a packet from p to q traverses: p's
// access link, the router path links, and q's access link.
func (a *Attachment) PathLinks(p, q PeerID) []Link {
	if p == q {
		return nil
	}
	routerLinks := a.nw.PathLinks(a.router[p], a.router[q])
	links := make([]Link, 0, len(routerLinks)+2)
	links = append(links, accessLink(p, a.router[p]))
	links = append(links, routerLinks...)
	links = append(links, accessLink(q, a.router[q]))
	return links
}
