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
	s := NewStepper(target, seeds, k, alpha)
	for wave := s.Next(); len(wave) > 0; wave = s.Next() {
		replies := make([]Reply, len(wave))
		for i, c := range wave {
			replies[i].Contacts, replies[i].Record, replies[i].Err = q(c, target)
		}
		s.Merge(replies)
	}
	return s.Result()
}

// Stepper is Lookup as a state machine its caller drives one wave at a time:
// Next hands out a wave, Merge folds that wave's replies in slot order, and
// Result summarizes once Next returns nothing. How the caller schedules the
// queries inside a wave — serially, as Lookup does, or all in flight
// together, as the live node does — cannot change the candidate list, and
// therefore cannot change any later wave.
type Stepper struct {
	target   ID
	k, alpha int
	byAddr   map[string]*candidate
	order    []*candidate // kept sorted by distance to target
	wave     []*candidate // the wave Next last handed out
	res      Result
}

// NewStepper starts a lookup for target from the seed contacts. k and alpha
// default to DefaultK and DefaultAlpha when not positive.
func NewStepper(target ID, seeds []Contact, k, alpha int) *Stepper {
	if k <= 0 {
		k = DefaultK
	}
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	s := &Stepper{target: target, k: k, alpha: alpha, byAddr: make(map[string]*candidate)}
	for _, c := range seeds {
		s.add(c)
	}
	return s
}

func (s *Stepper) add(c Contact) {
	if c.Info.Addr == "" {
		return
	}
	if _, ok := s.byAddr[c.Info.Addr]; ok {
		return
	}
	cand := &candidate{c: c}
	s.byAddr[c.Info.Addr] = cand
	i := sort.Search(len(s.order), func(i int) bool {
		return Closer(s.target, c.ID, s.order[i].c.ID)
	})
	s.order = append(s.order, nil)
	copy(s.order[i+1:], s.order[i:])
	s.order[i] = cand
}

// Next returns the next wave — the closest un-queried candidates among the
// k nearest non-failed ones, at most alpha, nearest first — and marks them
// queried. An empty wave means the lookup has converged or a value lookup
// hit.
func (s *Stepper) Next() []Contact {
	s.wave = s.wave[:0]
	if s.res.Record != nil {
		return nil
	}
	live := 0
	for _, cand := range s.order {
		if cand.state == candFailed {
			continue
		}
		live++
		if cand.state == candNew && len(s.wave) < s.alpha {
			s.wave = append(s.wave, cand)
		}
		if live >= s.k {
			break
		}
	}
	if len(s.wave) == 0 {
		return nil
	}
	s.res.Hops++
	contacts := make([]Contact, len(s.wave))
	for i, cand := range s.wave {
		cand.state = candQueried
		contacts[i] = cand.c
	}
	return contacts
}

// Merge folds the replies to the wave Next last returned, one per contact
// and in the same order: a failed contact leaves the shortlist, the first
// record found ends the lookup, and every offered contact joins the
// candidates.
func (s *Stepper) Merge(replies []Reply) {
	for i, r := range replies {
		s.res.Queries++
		if r.Err != nil {
			s.res.Failures++
			s.wave[i].state = candFailed
			continue
		}
		if r.Record != nil && s.res.Record == nil {
			s.res.Record = r.Record
		}
		for _, c := range r.Contacts {
			s.add(c)
		}
	}
}

// Result summarizes the lookup: the k nearest non-failed candidates, the
// record on a value hit, and the query, failure and wave counts.
func (s *Stepper) Result() Result {
	res := s.res
	for _, cand := range s.order {
		if cand.state == candFailed {
			continue
		}
		res.Closest = append(res.Closest, cand.c)
		if len(res.Closest) >= s.k {
			break
		}
	}
	return res
}
