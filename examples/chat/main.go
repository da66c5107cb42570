// Chat: run a fleet of live GroupCast nodes on the in-memory transport,
// form a chat room, and exchange messages — the live middleware without any
// sockets. Each node is a full protocol participant (bootstrap, heartbeats,
// SSA advertisement, tree join, payload dissemination).
//
// Run with:
//
//	go run ./examples/chat
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/node"
	"groupcast/internal/peer"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 16
	net := transport.NewMemNetwork()
	// 10-60 ms one-way latency between any two nodes, like a regional WAN.
	lat := rand.New(rand.NewSource(7))
	net.SetLatency(func(from, to string) time.Duration {
		return time.Duration(10+lat.Intn(50)) * time.Millisecond
	})

	rng := rand.New(rand.NewSource(1))
	sampler := peer.MustTable1Sampler()
	var nodes []*node.Node
	for i := 0; i < n; i++ {
		cfg := node.DefaultConfig(
			float64(sampler.Sample(rng)),
			coords.Point{rng.Float64() * 200, rng.Float64() * 200},
			int64(i+1))
		cfg.HeartbeatInterval = 500 * time.Millisecond
		nd := node.New(net.NextEndpoint(), cfg)
		nd.Start()
		// Bootstrap through up to 6 random already-running nodes.
		var contacts []string
		for _, idx := range rng.Perm(len(nodes)) {
			if len(contacts) >= 6 {
				break
			}
			contacts = append(contacts, nodes[idx].Addr())
		}
		if err := nd.Bootstrap(contacts, 2*time.Second); err != nil {
			return fmt.Errorf("node %d bootstrap: %w", i, err)
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	fmt.Printf("started %d live nodes\n", n)

	// The first node hosts the chat room.
	host := nodes[0]
	if err := host.CreateGroup("lobby"); err != nil {
		return err
	}
	if err := host.Advertise("lobby"); err != nil {
		return err
	}

	var mu sync.Mutex
	received := make(map[string][]string)
	join := func(nd *node.Node) {
		nd.SetPayloadHandler(func(gid string, from wire.PeerInfo, data []byte) {
			mu.Lock()
			defer mu.Unlock()
			received[nd.Addr()] = append(received[nd.Addr()], fmt.Sprintf("%s: %s", from.Addr, data))
		})
	}
	join(host)
	members := []*node.Node{host}
	for _, nd := range nodes[1:] {
		if err := nd.Join("lobby", 2*time.Second); err != nil {
			fmt.Printf("  %s could not join: %v\n", nd.Addr(), err)
			continue
		}
		join(nd)
		members = append(members, nd)
	}
	fmt.Printf("%d members in #lobby\n", len(members))

	// A short conversation: several members speak.
	speakers := []int{0, 1, len(members) / 2, len(members) - 1}
	for i, s := range speakers {
		msg := fmt.Sprintf("message %d from %s", i, members[s].Addr())
		if err := members[s].Publish("lobby", []byte(msg)); err != nil {
			return err
		}
	}
	time.Sleep(1500 * time.Millisecond) // WAN latency; let payloads spread

	mu.Lock()
	defer mu.Unlock()
	complete := 0
	for _, m := range members {
		got := len(received[m.Addr()])
		// Each member hears every message except its own publications.
		want := len(speakers)
		for _, s := range speakers {
			if members[s].Addr() == m.Addr() {
				want--
			}
		}
		if got >= want {
			complete++
		}
	}
	fmt.Printf("delivery: %d/%d members heard the whole conversation\n", complete, len(members))
	for _, line := range received[members[1].Addr()] {
		fmt.Printf("  [%s heard] %s\n", members[1].Addr(), line)
	}
	return nil
}
