package bench

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"groupcast/internal/core"
	"groupcast/internal/dht"
	"groupcast/internal/experiments"
	"groupcast/internal/metrics"
	"groupcast/internal/reliable"
	"groupcast/internal/sim"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// The layer pass times one layer at a time, outside any cluster, through the
// layer's public functions. It is the same for every workload and every seed:
// its inputs are fixed so the numbers compare across runs.

// timeOp calls op repeatedly for about budget on the calling goroutine and
// returns nanoseconds and heap allocations per call. The batch size doubles
// until the clock is read rarely enough not to matter.
func timeOp(budget time.Duration, op func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	calls, batch := 0, 1
	for {
		for i := 0; i < batch; i++ {
			op()
		}
		calls += batch
		elapsed := time.Since(start)
		if elapsed >= budget {
			runtime.ReadMemStats(&after)
			return float64(elapsed) / float64(calls), float64(after.Mallocs-before.Mallocs) / float64(calls)
		}
		if elapsed < budget/16 {
			batch *= 2
		}
	}
}

// layerValues runs the whole layer pass within about budget and adds its
// metrics to values.
func layerValues(values map[string]float64, budget time.Duration) error {
	passes := []func(map[string]float64, time.Duration) error{
		wireLayer, inboxLayer, memLayer, tcpLayer, reliableLayer, dhtLayer, smallLayers, simLayer,
	}
	// The sweep runs a fixed amount of work, not a time budget; the passes
	// make 17 timings between them and share the budget evenly.
	if err := sweepLayer(values); err != nil {
		return err
	}
	const timings = 17
	for _, pass := range passes {
		if err := pass(values, budget/timings); err != nil {
			return err
		}
	}
	return nil
}

func benchPeer(i int) wire.PeerInfo {
	return wire.PeerInfo{Addr: fmt.Sprintf("127.0.0.1:%d", 40000+i),
		Coord: []float64{12.5 + float64(i), -3.25, 41.5}, Capacity: 10}
}

// payloadMessage is a relayed payload as the tree carries it.
func payloadMessage(size int) wire.Message {
	t0 := time.Unix(1700000000, 123456789)
	return wire.Message{Type: wire.TPayload, From: benchPeer(1), GroupID: groupID, Seq: 42,
		Mode: wire.ReliableOrdered, Relay: benchPeer(2), Data: bytes.Repeat([]byte{0xA5}, size),
		Hops: 2, OriginAt: t0, RelayedAt: t0.Add(time.Millisecond)}
}

// beaconMessage is a rendezvous beacon with its backups, roster and the
// telemetry piggyback, as the chat workloads carry every epoch.
func beaconMessage() wire.Message {
	health := make([]wire.HealthDigest, 3)
	for i := range health {
		health[i] = wire.HealthDigest{Addr: benchPeer(i).Addr, Epoch: 900 + uint64(i), Utility: 0.4,
			Pressure: 0.1, P99Ms: 1.5, Inbox: 3, Delivered: 123456, Shed: 0}
	}
	return wire.Message{Type: wire.TBeacon, From: benchPeer(1), GroupID: groupID, Epoch: 1,
		Mode: wire.ReliableOrdered, Path: []string{benchPeer(0).Addr, benchPeer(1).Addr},
		Backups:  []wire.PeerInfo{benchPeer(2), benchPeer(3), benchPeer(4)},
		Deputies: []wire.PeerInfo{benchPeer(1), benchPeer(2), benchPeer(3)}, Health: health}
}

// loopReader replays one encoded frame forever, so a single FrameReader
// decodes steady-state as on a long-lived connection.
type loopReader struct {
	frame []byte
	off   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

func wireLayer(values map[string]float64, budget time.Duration) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	encode := func(msg wire.Message) float64 {
		buf := make([]byte, 0, 8192)
		ns, _ := timeOp(budget, func() {
			out, err := wire.AppendMessage(buf[:0], &msg)
			note(err)
			buf = out
		})
		return ns
	}
	decode := func(msg wire.Message) (ns, allocs float64) {
		frame, err := wire.EncodeMessage(&msg)
		if err != nil {
			note(err)
			return 0, 0
		}
		fr := wire.NewFrameReader(&loopReader{frame: frame})
		var got wire.Message
		return timeOp(budget, func() { note(fr.ReadMessage(&got)) })
	}
	values["wire.encode_payload64_ns"] = encode(payloadMessage(64))
	values["wire.encode_payload4k_ns"] = encode(payloadMessage(4096))
	values["wire.decode_payload64_ns"], values["wire.decode_payload64_allocs"] = decode(payloadMessage(64))
	values["wire.decode_payload4k_ns"], _ = decode(payloadMessage(4096))
	values["wire.decode_beacon_ns"], values["wire.decode_beacon_allocs"] = decode(beaconMessage())
	if firstErr != nil {
		return fmt.Errorf("wire: %w", firstErr)
	}
	return nil
}

// inboxLayer times producer goroutine → PrioInbox → consumer in batches
// small enough never to fill the inbox.
func inboxLayer(values map[string]float64, budget time.Duration) error {
	const batch = 256
	in := transport.NewPrioInbox(0, false)
	msg := payloadMessage(64)
	goBatch := make(chan struct{})
	var producer sync.WaitGroup
	producer.Add(1)
	go func() {
		defer producer.Done()
		for range goBatch {
			for i := 0; i < batch; i++ {
				in.Push(msg)
			}
		}
	}()
	ns, allocs := timeOp(budget, func() {
		goBatch <- struct{}{}
		for i := 0; i < batch; i++ {
			<-in.Recv()
		}
	})
	close(goBatch)
	producer.Wait()
	in.Close()
	if sheds := in.Sheds(); sheds != 0 {
		return fmt.Errorf("inbox: %d sheds in a lossless pass", sheds)
	}
	values["transport.inbox_push_recv_ns"] = ns / batch
	values["transport.inbox_allocs"] = allocs / batch
	return nil
}

var errRecvTimeout = errors.New("message not received before the pass deadline")

// passDeadline bounds a whole timing pass: its budget plus the stall allowance.
func passDeadline(budget time.Duration) *time.Timer { return time.NewTimer(budget + stallAfter) }

// recvOne waits for one message on tr, until the pass deadline.
func recvOne(tr transport.Transport, deadline *time.Timer) error {
	select {
	case _, ok := <-tr.Recv():
		if !ok {
			return transport.ErrClosed
		}
		return nil
	case <-deadline.C:
		return errRecvTimeout
	}
}

// pingPong times Send at a → message out of b's Recv, one at a time.
func pingPong(budget time.Duration, a, b transport.Transport, msg wire.Message) (float64, error) {
	deadline := passDeadline(budget)
	defer deadline.Stop()
	var firstErr error
	ns, _ := timeOp(budget, func() {
		if firstErr != nil {
			return
		}
		if firstErr = a.Send(b.Addr(), msg); firstErr == nil {
			firstErr = recvOne(b, deadline)
		}
	})
	return ns, firstErr
}

func memLayer(values map[string]float64, budget time.Duration) error {
	net := transport.NewMemNetwork()
	a, b := net.NextEndpoint(), net.NextEndpoint()
	defer a.Close()
	defer b.Close()
	ns, err := pingPong(budget, a, b, payloadMessage(64))
	if err != nil {
		return fmt.Errorf("mem send→recv: %w", err)
	}
	values["transport.mem_send_recv_ns"] = ns
	return nil
}

func tcpLayer(values map[string]float64, budget time.Duration) error {
	var peers []*transport.TCPTransport
	defer func() {
		for _, p := range peers {
			_ = p.Close() // a listener's close error changes nothing here
		}
	}()
	for i := 0; i < 4; i++ {
		p, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("tcp listen: %w", err)
		}
		peers = append(peers, p)
	}
	a, b := peers[0], peers[1]
	for size, name := range map[int]string{64: "transport.tcp_send_recv_64_ns", 4096: "transport.tcp_send_recv_4k_ns"} {
		ns, err := pingPong(budget, a, b, payloadMessage(size))
		if err != nil {
			return fmt.Errorf("tcp send→recv %dB: %w", size, err)
		}
		values[name] = ns
	}

	// SendMany to three peers: only the call is timed; each peer is drained
	// between calls so no send queue ever fills.
	addrs := []string{peers[1].Addr(), peers[2].Addr(), peers[3].Addr()}
	msg := payloadMessage(64)
	deadline := passDeadline(budget)
	defer deadline.Stop()
	var inCall time.Duration
	var calls int
	var firstErr error
	note := func(_ string, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for start := time.Now(); time.Since(start) < budget && firstErr == nil; calls++ {
		t0 := time.Now()
		a.SendMany(addrs, msg, note)
		inCall += time.Since(t0)
		for _, p := range peers[1:] {
			note("", recvOne(p, deadline))
		}
	}
	if firstErr != nil {
		return fmt.Errorf("tcp SendMany: %w", firstErr)
	}
	values["transport.tcp_sendmany3_ns"] = float64(inCall) / float64(calls)
	return nil
}

func reliableLayer(values map[string]float64, budget time.Duration) error {
	data := bytes.Repeat([]byte{0xA5}, 256)
	now := time.Unix(1700000000, 0)
	w := reliable.NewSourceWindow(reliable.DefaultWindowSpan, reliable.DefaultCachePayloads, true, true)
	var res reliable.ObserveResult
	var seq uint64
	delivered := 0
	values["reliable.observe_inorder_ns"], values["reliable.observe_allocs"] = timeOp(budget, func() {
		seq++
		res = reliable.ObserveResult{Deliver: res.Deliver[:0]}
		w.ObserveItem(seq, reliable.Item{Data: data}, now, &res)
		delivered += len(res.Deliver)
	})
	if uint64(delivered) != seq {
		return fmt.Errorf("reliable: in-order window released %d of %d", delivered, seq)
	}
	sb := reliable.NewSendBuffer(reliable.DefaultCachePayloads)
	values["reliable.sendbuffer_next_ns"], _ = timeOp(budget, func() { sb.NextItem(reliable.Item{Data: data}) })
	return nil
}

// dhtLayer runs iterative node lookups over 256 synthetic contacts whose
// tables were each fed the whole population. The query callback only reads
// (Table locks itself), so the α goroutines Lookup runs it on are safe.
func dhtLayer(values map[string]float64, budget time.Duration) error {
	const population, targets = 256, 64
	contacts := make([]dht.Contact, population)
	tables := make([]*dht.Table, population)
	indexOf := make(map[string]int, population)
	for i := range contacts {
		addr := fmt.Sprintf("bench-%d", i)
		contacts[i] = dht.Contact{ID: dht.NodeID(addr), Info: wire.PeerInfo{Addr: addr}}
		indexOf[addr] = i
	}
	for i := range tables {
		tables[i] = dht.NewTable(contacts[i].ID, dht.DefaultK)
		for j := 1; j < population; j++ {
			tables[i].Observe(contacts[(i+j)%population])
		}
	}
	query := func(c dht.Contact, target dht.ID) ([]dht.Contact, *dht.Record, error) {
		return tables[indexOf[c.Info.Addr]].Closest(target, dht.DefaultK), nil, nil
	}
	keys := make([]dht.ID, targets)
	for i := range keys {
		keys[i] = dht.KeyID(fmt.Sprintf("bench-group-%d", i))
	}
	var lookups, queries int
	ns, _ := timeOp(budget, func() {
		key := keys[lookups%targets]
		origin := tables[lookups%population]
		res := dht.Lookup(key, origin.Closest(key, dht.DefaultK), dht.DefaultK, dht.DefaultAlpha, query)
		queries += res.Queries
		lookups++
	})
	values["dht.lookup_us"] = ns / 1e3
	values["dht.lookup_queries"] = float64(queries) / float64(lookups)
	next := 0
	values["dht.table_closest_ns"], _ = timeOp(budget, func() {
		tables[0].Closest(keys[next%targets], dht.DefaultK)
		next++
	})
	return nil
}

func smallLayers(values map[string]float64, budget time.Duration) error {
	h := metrics.NewFixedHistogram(metrics.DefaultLatencyBuckets())
	v := 0.0
	values["metrics.histogram_observe_ns"], _ = timeOp(budget, func() {
		v += 0.37
		if v > 5000 {
			v = 0
		}
		h.Observe(v)
	})

	rng := rand.New(rand.NewSource(1))
	cands := make([]core.Candidate, 32)
	for i := range cands {
		cands[i] = core.Candidate{Capacity: 1 + rng.Float64()*99, Distance: 1 + rng.Float64()*200}
	}
	var firstErr error
	values["core.select_ns"], _ = timeOp(budget, func() {
		if _, err := core.SelectByPreference(0.5, cands, 8, rng); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		return fmt.Errorf("core select: %w", firstErr)
	}
	return nil
}

// simLayer keeps 1024 self-rescheduling events in the engine's heap.
func simLayer(values map[string]float64, budget time.Duration) error {
	const pending, step = 1024, 4096
	e := sim.New()
	var tick sim.Handler
	tick = func(e *sim.Engine, _ sim.Time) {
		// After never fails for a non-negative delay and a non-nil handler.
		_, _ = e.After(1, tick)
	}
	for i := 0; i < pending; i++ {
		if _, err := e.After(sim.Time(i%7), tick); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	ns, _ := timeOp(budget, func() { e.Run(step) })
	values["sim.events_per_s"] = step / (ns / 1e9)
	return nil
}

// sweepLayer runs one small fixed sweep twice, serially; the two results
// must be identical (the paper-figure side's determinism) and the reported
// time is their mean.
func sweepLayer(values map[string]float64) error {
	cfg := experiments.SweepConfig{Sizes: []int{300}, GroupsPerOverlay: 2, SubscriberFraction: 0.1,
		Seed: 1, Topologies: 1, Workers: 1}
	var rows [2][]experiments.SweepRow
	start := time.Now()
	for i := range rows {
		var err error
		if rows[i], err = experiments.RunSweep(cfg); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	elapsed := time.Since(start)
	if len(rows[0]) == 0 || fmt.Sprintf("%+v", rows[0]) != fmt.Sprintf("%+v", rows[1]) {
		return errors.New("sweep: two runs of one seed differ")
	}
	values["experiments.sweep_s"] = elapsed.Seconds() / 2
	return nil
}
