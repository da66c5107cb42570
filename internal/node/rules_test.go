package node

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/wire"
)

// rulePeers are twelve fixed peers spread over four capacity decades and a
// small plane, so every utility term has something to rank.
func rulePeers() []wire.PeerInfo {
	caps := []float64{1, 10, 100, 1000}
	out := make([]wire.PeerInfo, 12)
	for i := range out {
		out[i] = wire.PeerInfo{
			Addr:     fmt.Sprintf("p%02d", i),
			Capacity: caps[(i*7)%4],
			Coord:    []float64{float64(i * 3 % 7), float64(i * 5 % 11), 0},
		}
	}
	return out
}

// ruleNode is an unstarted node over a sendLog, driven by stepAt.
func ruleNode(capacity float64, seed int64) (*Node, *sendLog) {
	log := &sendLog{Transport: stubEndpoint()}
	return New(log, DefaultConfig(capacity, coords.Point{2, 3, 0}, seed)), log
}

// sentTo lists, in send order, the addresses that got a message of type typ.
func (l *sendLog) sentTo(typ wire.Type) string {
	var to []string
	for _, s := range l.sent {
		if s.msg.Type == typ {
			to = append(to, s.to)
		}
	}
	return strings.Join(to, " ")
}

// TestSelectionRulesPinned pins the node's three Section 3 draws at fixed
// seeds: the neighbours connect asks (Eq. 6 over probed frequencies), the
// back-connect requests handleBackConnect accepts (PB_k, then pb), and the
// neighbours forwardAdvertisement picks (SSA). Every expected value was
// recorded once and is not to be edited: a diff means a rule, its inputs or
// its rng draw order changed, and with it what a live node does.
func TestSelectionRulesPinned(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)

	t.Run("connect", func(t *testing.T) {
		want := map[float64]string{
			1:    "p03 p07 p05 p09",
			10:   "p00 p03 p05 p09 p07 p02",
			1000: "p03 p00 p11 p08 p04 p02 p05 p07 p01 p09",
		}
		for _, capacity := range []float64{1, 10, 1000} {
			n, log := ruleNode(capacity, 5)
			freq := make(map[string]int)
			infos := make(map[string]wire.PeerInfo)
			for i, p := range rulePeers() {
				freq[p.Addr] = 1 + i%3
				infos[p.Addr] = p
			}
			stepAt(n, now, event{flow: func() { n.connect(freq, infos, time.Second, func(error) {}) }})
			if got := log.sentTo(wire.TBackConnect); got != want[capacity] {
				t.Errorf("capacity %v: connect asked %q, want %q", capacity, got, want[capacity])
			}
			n.Close()
		}
	})

	t.Run("backConnect", func(t *testing.T) {
		const want = "p04+ p05+ p06- p07+ p08- p09- p10+ p11+ p04- p05+ p06- p07+ p08+ p09- p10+ p11-"
		n, log := ruleNode(10, 9)
		defer n.Close()
		peers := rulePeers()
		var got []string
		stepAt(n, now, event{flow: func() {
			for _, p := range peers[:4] {
				n.addNeighbor(p)
			}
			for round := 0; round < 2; round++ {
				for _, p := range peers[4:] {
					before := log.count(p.Addr, wire.TBackAccept)
					n.handleBackConnect(wire.Message{Type: wire.TBackConnect, From: p, ReqID: 1})
					if log.count(p.Addr, wire.TBackAccept) > before {
						got = append(got, p.Addr+"+")
					} else {
						got = append(got, p.Addr+"-")
					}
				}
			}
		}})
		if g := strings.Join(got, " "); g != want {
			t.Errorf("back-connect verdicts %q, want %q", g, want)
		}
	})

	t.Run("forwardAdvertisement", func(t *testing.T) {
		want := []string{"p04 p01 p05 p09", "p05 p07 p06 p01", "p03 p09 p05 p00", "p06 p08 p05 p01"}
		n, log := ruleNode(100, 13)
		defer n.Close()
		peers := rulePeers()
		var got []string
		stepAt(n, now, event{flow: func() {
			for _, p := range peers[:10] {
				n.addNeighbor(p)
			}
			for i, upstream := range []string{"p00", "p03", "p07", "nobody"} {
				log.sent = nil
				n.forwardAdvertisement(wire.Message{Type: wire.TAdvertise, GroupID: "g", MsgID: uint64(i + 1)}, upstream)
				got = append(got, log.sentTo(wire.TAdvertise))
			}
		}})
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("forward %d went to %q, want %q", i, got[i], want[i])
			}
		}
	})
}
