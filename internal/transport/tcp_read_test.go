package transport

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"groupcast/internal/wire"
)

// countingConn counts the Read calls made on a connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// readLoopReads writes frames payloads of size bytes to a readLoop in one
// Write, checks that all of them reach the inbox in order, and returns the
// stream's length and the Read calls the loop made (the final EOF read
// included).
func readLoopReads(t *testing.T, frames, size int) (streamLen int, reads int64) {
	t.Helper()
	tr := &TCPTransport{inbox: NewPrioInbox(frames, false), inbound: map[net.Conn]struct{}{}}
	client, server := net.Pipe()
	conn := &countingConn{Conn: server}
	tr.wg.Add(1)
	go tr.readLoop(conn)

	var stream []byte
	for i := 0; i < frames; i++ {
		msg := payloadMsg(uint64(i))
		msg.Data = bytes.Repeat([]byte{byte(i)}, size)
		var err error
		if stream, err = wire.AppendMessage(stream, &msg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Write(stream); err != nil {
		t.Fatal(err)
	}
	client.Close()
	tr.wg.Wait()
	defer tr.inbox.Close()

	for i := 0; i < frames; i++ {
		select {
		case msg := <-tr.inbox.Recv():
			if msg.MsgID != uint64(i) || len(msg.Data) != size || msg.Data[0] != byte(i) {
				t.Fatalf("message %d: got MsgID %d with %d bytes", i, msg.MsgID, len(msg.Data))
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d frames reached the inbox", i, frames)
		}
	}
	return len(stream), conn.reads.Load()
}

// TestReadLoopBatchesReads: frames a peer wrote in one batch cost the
// reader about one Read per read buffer, not two per frame (header, then
// body), and still arrive whole and in order — also when 4 KiB frames
// straddle the buffer boundary.
func TestReadLoopBatchesReads(t *testing.T) {
	for _, size := range []int{64, 4 << 10} {
		n, reads := readLoopReads(t, 64, size)
		t.Logf("%d B payloads: %d Reads for a %d B batch", size, reads, n)
		// One Read per buffer's worth, one for a final partial buffer, one
		// for the EOF.
		if limit := int64(n/readBufSize + 2); reads > limit {
			t.Errorf("%d B payloads: %d Reads for a %d B batch, want at most %d", size, reads, n, limit)
		}
	}
}

// TestTCPHopAllocations: once warm, a frame sent with SendMany crosses the
// link — pooled encode, the link's writer, the peer's buffered readLoop and
// decoder, the inbox — allocating only the payload's frame body, which the
// decoded Data aliases.
func TestTCPHopAllocations(t *testing.T) {
	a, b := tcpPairConfig(t, TCPConfig{})
	msg := wire.Message{Type: wire.TPayload, GroupID: "g", Mode: wire.BestEffort, Seq: 1,
		From:  wire.PeerInfo{Addr: a.Addr(), Coord: []float64{12.5, -3.25}, Capacity: 50},
		Relay: wire.PeerInfo{Addr: a.Addr(), Coord: []float64{12.5, -3.25}, Capacity: 50},
		Data:  bytes.Repeat([]byte{0xA5}, 64)}
	to := []string{b.Addr()}
	const frames = 1000
	hops := func() {
		for i := 0; i < frames; i++ {
			a.SendMany(to, msg, nil)
			<-b.Recv()
		}
	}
	hops()
	got := testing.AllocsPerRun(1, hops) / frames
	t.Logf("%.3f allocations per frame", got)
	if got > 1.1 {
		t.Errorf("a warm TCP hop allocates %.3f times per frame, want at most 1.1 (the payload's frame body)", got)
	}
}
