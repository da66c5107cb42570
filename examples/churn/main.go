// Churn: run real GroupCast nodes under peer churn, in virtual time on a
// node.Cluster. Peers arrive with exponential inter-arrival times (the
// paper's Expo(1s) model) and depart after exponential lifetimes: 30% crash
// (the endpoint closes under the node) and the rest leave gracefully
// (Node.Close). Every 4th arrival joins one group, whose rendezvous — the
// first peer, which never departs — publishes once a second; the nodes'
// own tree repair (backup access points, then the search) keeps the
// members attached. The example reports alive nodes, members, and members
// that got the last publish over simulated time.
//
// Run with:
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/node"
	"groupcast/internal/peer"
	"groupcast/internal/sim"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// peerNode is one arrived peer: its node and the endpoint a crash closes.
type peerNode struct {
	nd *node.Node
	ep transport.Transport
}

func run() error {
	const (
		population   = 500
		seed         = 11
		meanLifetime = 120_000 // ms
		horizon      = 180_000 // ms of simulated time
		memberEvery  = 4
		gid          = "churn"
	)
	rng := rand.New(rand.NewSource(seed))
	sampler := peer.MustTable1Sampler()
	pos := map[string]coords.Point{}
	c := node.NewCluster(func(from, to string) time.Duration {
		return time.Duration(coords.Dist(pos[from], pos[to]) * float64(10*time.Microsecond))
	})
	start := c.Now()
	// advance brings the cluster to the engine's time now. A blocking call
	// (Bootstrap, Join) steps the cluster ahead on its own; it then waits.
	advance := func(now sim.Time) {
		if d := start.Add(time.Duration(float64(now) * float64(time.Millisecond))).Sub(c.Now()); d > 0 {
			c.Run(d)
		}
	}

	engine := sim.New()
	arrivals := peer.NewArrivalProcess(1000, rng) // Expo(1s), as in Section 4.1
	churn := peer.NewChurnProcess(meanLifetime, 0.3, rng)

	var (
		rdv                    *node.Node
		alive                  []peerNode // in arrival order
		joins, leaves, crashes int
		published              string
		last                   = map[string]string{} // member address -> last payload heard
	)

	depart := func(addr string, graceful bool) {
		i := slices.IndexFunc(alive, func(p peerNode) bool { return p.nd.Addr() == addr })
		p := alive[i]
		alive = slices.Delete(alive, i, i+1)
		if graceful {
			leaves++
			_ = p.nd.Close()
		} else {
			crashes++
			_ = p.ep.Close()
		}
	}

	if _, err := arrivals.ScheduleJoins(engine, population, func(i int) {
		advance(engine.Now())
		addr := fmt.Sprintf("n%03d", i)
		pos[addr] = coords.Point{rng.Float64() * 300, rng.Float64() * 300}
		ep, err := c.Endpoint(addr)
		if err != nil {
			log.Printf("endpoint %s: %v", addr, err)
			return
		}
		nd := node.New(ep, node.DefaultConfig(float64(sampler.Sample(rng)), pos[addr], int64(i+1)))
		c.Start(nd)
		var contacts []string
		for j := len(alive) - 1; j >= 0 && len(contacts) < 5; j-- {
			contacts = append(contacts, alive[j].nd.Addr())
		}
		if err := nd.Bootstrap(contacts, 2*time.Second); err != nil {
			log.Printf("bootstrap %s: %v", addr, err)
			_ = nd.Close()
			return
		}
		alive = append(alive, peerNode{nd, ep})
		joins++
		switch {
		case i == 0:
			rdv = nd
			if err := nd.CreateGroup(gid); err != nil {
				log.Printf("create group: %v", err)
			} else if err := nd.Advertise(gid); err != nil {
				log.Printf("advertise: %v", err)
			}
			return // the rendezvous stays for the whole run
		case i%memberEvery == 0:
			if nd.Join(gid, 3*time.Second) == nil {
				nd.SetPayloadHandler(func(_ string, _ wire.PeerInfo, data []byte) { last[addr] = string(data) })
			}
		}
		ev := churn.NextDeparture(engine.Now())
		if ev.At > horizon {
			return // survives the run
		}
		if _, err := engine.At(ev.At, func(_ *sim.Engine, now sim.Time) {
			advance(now)
			depart(addr, ev.Graceful)
		}); err != nil {
			log.Printf("schedule departure: %v", err)
		}
	}); err != nil {
		return err
	}

	// Once a second the rendezvous publishes; every 15 s, just before that
	// publish, a report counts who heard the one a second earlier.
	report := func(now sim.Time) {
		members, got := 0, 0
		for _, p := range alive {
			if p.nd != rdv && p.nd.Tree(gid).Member {
				members++
				if published != "" && last[p.nd.Addr()] == published {
					got++
				}
			}
		}
		fmt.Printf("t=%4.0fs  alive=%3d  members=%3d  got-last=%3d  joins=%d leaves=%d crashes=%d\n",
			float64(now)/1000, len(alive), members, got, joins, leaves, crashes)
	}
	var tick sim.Handler
	tick = func(e *sim.Engine, now sim.Time) {
		advance(now)
		if int(now)%15_000 == 0 {
			report(now)
		}
		if rdv != nil {
			published = fmt.Sprintf("t=%.0fs", float64(now)/1000)
			_ = rdv.Publish(gid, []byte(published))
		}
		if now+1000 <= horizon {
			if _, err := e.After(1000, tick); err != nil {
				log.Printf("schedule tick: %v", err)
			}
		}
	}
	if _, err := engine.At(1000, tick); err != nil {
		return err
	}

	engine.RunUntil(horizon)
	fmt.Printf("done: %d joins, %d leaves, %d crashes over %.0f simulated seconds\n",
		joins, leaves, crashes, float64(horizon)/1000)
	return nil
}
