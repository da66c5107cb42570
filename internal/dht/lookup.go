package dht

import "sort"

// QueryFunc issues one FindNode/FindValue RPC against contact c for target:
// it returns the contacts c offered and, for value lookups, the record when
// c held it. Lookup calls it from the calling goroutine only, one query at a
// time, so it may touch the caller's state without synchronization.
type QueryFunc func(c Contact, target ID) (contacts []Contact, rec *Record, err error)

// Reply is one contact's answer within a wave: what a QueryFunc returns.
type Reply struct {
	Contacts []Contact
	Record   *Record
	Err      error
}

// WaveFunc issues one wave's queries — up to alpha contacts, nearest first —
// and returns their replies in the same order. It is called from the calling
// goroutine only; whether the queries inside a wave overlap is its business
// (the live node keeps them in flight together to hide RPC latency).
type WaveFunc func(wave []Contact, target ID) []Reply

// Result summarizes one iterative lookup.
type Result struct {
	// Closest holds the k nearest responsive contacts found, nearest first.
	Closest []Contact
	// Record is the located value on a FindValue hit (nil otherwise).
	Record *Record
	// Queries counts RPCs issued; Failures counts the subset that errored.
	Queries  int
	Failures int
	// Hops counts query waves until convergence — the O(log N) quantity.
	Hops int
}

// lookup candidate states.
const (
	candNew = iota
	candQueried
	candFailed
)

type candidate struct {
	c     Contact
	state int
}

// Lookup is the iterative Kademlia lookup: starting from the seed contacts
// it repeatedly queries, in waves of up to alpha, the closest candidates not
// yet asked, folds every reply's contacts into the shortlist, and stops when
// the k closest known candidates have all been queried (or a value lookup
// hits). q is called serially, in slot order within each wave, so with a
// deterministic QueryFunc the whole lookup — including its message count —
// is deterministic.
func Lookup(target ID, seeds []Contact, k, alpha int, q QueryFunc) Result {
	return LookupWaves(target, seeds, k, alpha, func(wave []Contact, target ID) []Reply {
		replies := make([]Reply, len(wave))
		for i, c := range wave {
			replies[i].Contacts, replies[i].Record, replies[i].Err = q(c, target)
		}
		return replies
	})
}

// LookupWaves is Lookup with the wave as the unit of querying: every wave is
// handed to w whole, and its replies merge in slot order, so the candidate
// list (and therefore every later wave) does not depend on how w schedules
// the queries inside a wave.
func LookupWaves(target ID, seeds []Contact, k, alpha int, w WaveFunc) Result {
	if k <= 0 {
		k = DefaultK
	}
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	var res Result
	byAddr := make(map[string]*candidate)
	var order []*candidate // kept sorted by distance to target
	add := func(c Contact) {
		if c.Info.Addr == "" {
			return
		}
		if _, ok := byAddr[c.Info.Addr]; ok {
			return
		}
		cand := &candidate{c: c}
		byAddr[c.Info.Addr] = cand
		i := sort.Search(len(order), func(i int) bool {
			return Closer(target, c.ID, order[i].c.ID)
		})
		order = append(order, nil)
		copy(order[i+1:], order[i:])
		order[i] = cand
	}
	for _, s := range seeds {
		add(s)
	}

	// nextWave picks the closest un-queried candidates among the k nearest
	// non-failed ones; an empty pick means the lookup has converged.
	nextWave := func() []*candidate {
		var wave []*candidate
		live := 0
		for _, cand := range order {
			if cand.state == candFailed {
				continue
			}
			live++
			if cand.state == candNew && len(wave) < alpha {
				wave = append(wave, cand)
			}
			if live >= k {
				break
			}
		}
		return wave
	}

	for {
		wave := nextWave()
		if len(wave) == 0 {
			break
		}
		res.Hops++
		contacts := make([]Contact, len(wave))
		for i, cand := range wave {
			cand.state = candQueried
			contacts[i] = cand.c
		}
		for i, r := range w(contacts, target) {
			res.Queries++
			if r.Err != nil {
				res.Failures++
				wave[i].state = candFailed
				continue
			}
			if r.Record != nil && res.Record == nil {
				res.Record = r.Record
			}
			for _, c := range r.Contacts {
				add(c)
			}
		}
		if res.Record != nil {
			break
		}
	}

	for _, cand := range order {
		if cand.state == candFailed {
			continue
		}
		res.Closest = append(res.Closest, cand.c)
		if len(res.Closest) >= k {
			break
		}
	}
	return res
}
