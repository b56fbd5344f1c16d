package coap

import (
	"bytes"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

// rawDial opens a plain UDP socket to the server for hand-crafted
// datagrams (bypassing the client's retransmission machinery).
func rawDial(t *testing.T, srv *Server) *net.UDPConn {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, srv.Addr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func rawExchange(t *testing.T, conn *net.UDPConn, data []byte) []byte {
	t.Helper()
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 64*1024)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), buf[:n]...)
}

func TestServerDedupReplaysCachedAck(t *testing.T) {
	var calls int64
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message {
		atomic.AddInt64(&calls, 1)
		return &Message{Code: CodeChanged, Payload: []byte("done")}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := rawDial(t, srv)

	req := &Message{Type: Confirmable, Code: CodePOST, MessageID: 0x1234, Token: []byte{9}}
	req.SetPath("report")
	data, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	ack1 := rawExchange(t, conn, data)
	// Retransmission of the very same datagram: the handler must not run
	// again, and the replayed ACK must be byte-identical.
	ack2 := rawExchange(t, conn, data)
	if !bytes.Equal(ack1, ack2) {
		t.Errorf("replayed ACK differs:\n first: %x\nsecond: %x", ack1, ack2)
	}
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Errorf("handler ran %d times, want exactly once", got)
	}
	st := srv.Stats()
	if st.Deduped != 1 || st.Handled != 1 || st.Received != 2 {
		t.Errorf("stats = %+v", st)
	}

	resp, err := Unmarshal(ack2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != Acknowledgement || resp.MessageID != 0x1234 || resp.Code != CodeChanged {
		t.Errorf("replayed ACK = %+v", resp)
	}
}

func TestServerDedupAbsorbsInFlightRetransmission(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var calls int64
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message {
		atomic.AddInt64(&calls, 1)
		entered <- struct{}{}
		<-release
		return &Message{Code: CodeChanged}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := rawDial(t, srv)

	req := &Message{Type: Confirmable, Code: CodePOST, MessageID: 7, Token: []byte{1}}
	data, _ := req.Marshal()
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	<-entered // the handler is now holding the exchange open
	// A retransmission while the original is in flight must be absorbed
	// silently, not handled a second time.
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	close(release)

	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 1024)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Errorf("handler ran %d times, want exactly once", got)
	}
}

func TestClientRetransmitOverChaoticLinkExactlyOnce(t *testing.T) {
	var calls int64
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message {
		atomic.AddInt64(&calls, 1)
		return &Message{Code: CodeContent, Payload: req.Payload}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inner, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	link := chaos.WrapConn(inner, chaos.Config{Seed: 11, Drop: 0.35, Dup: 0.2})
	cli := NewClient(link)
	defer cli.Close()
	cli.AckTimeout = 20 * time.Millisecond
	cli.MaxRetransmit = 12

	const exchanges = 8
	for i := 0; i < exchanges; i++ {
		req := &Message{Code: CodePOST, Payload: []byte{byte(i)}}
		req.SetPath("report")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		resp, err := cli.Do(ctx, req)
		cancel()
		if err != nil {
			t.Fatalf("exchange %d failed: %v", i, err)
		}
		if len(resp.Payload) != 1 || resp.Payload[0] != byte(i) {
			t.Fatalf("exchange %d echoed %x", i, resp.Payload)
		}
	}
	if got := atomic.LoadInt64(&calls); got != exchanges {
		t.Errorf("handler ran %d times for %d exchanges; dedup must absorb every retransmission", got, exchanges)
	}
	if cs := link.Stats(); cs.Dropped == 0 && cs.Dups == 0 {
		t.Error("chaos link injected no faults; test exercised nothing")
	}
}

func TestClientMessageIDsMonotonic(t *testing.T) {
	var mids []uint16
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message {
		<-mu
		mids = append(mids, req.MessageID)
		mu <- struct{}{}
		return &Message{Code: CodeContent}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := cli.Do(ctx, &Message{Code: CodeGET})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
	<-mu
	if len(mids) != 4 {
		t.Fatalf("server saw %d requests", len(mids))
	}
	for i := 1; i < len(mids); i++ {
		if mids[i] != mids[i-1]+1 { // uint16 arithmetic wraps as the RFC wants
			t.Errorf("MessageIDs %v not monotonic per §4.4", mids)
		}
	}
}

func TestServerShedsWhenQueueFull(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var calls int64
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(conn, func(req *Message) *Message {
		atomic.AddInt64(&calls, 1)
		entered <- struct{}{}
		<-release
		return &Message{Code: CodeChanged}
	}, WithWorkers(1), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw := rawDial(t, srv)

	send := func(mid uint16) {
		m := &Message{Type: Confirmable, Code: CodePOST, MessageID: mid, Token: []byte{byte(mid)}}
		data, _ := m.Marshal()
		if _, err := raw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	send(1)
	<-entered // worker busy
	send(2)   // sits in the queue
	// Wait until request 2 is actually queued before overflowing.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Received < 2 {
		if time.Now().After(deadline) {
			t.Fatal("request 2 never received")
		}
		time.Sleep(time.Millisecond)
	}
	send(3) // queue full: shed
	for srv.Stats().Dropped < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("shed never counted: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	// The shed request was forgotten, so its retransmission is handled.
	for atomic.LoadInt64(&calls) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never handled")
		}
		time.Sleep(time.Millisecond)
	}
	send(3)
	for atomic.LoadInt64(&calls) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("retransmission of shed request never handled")
		}
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
}

func TestDedupExportRestoreRoundTrip(t *testing.T) {
	var calls int64
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message {
		atomic.AddInt64(&calls, 1)
		return &Message{Code: CodeChanged, Payload: []byte("v1")}
	})
	if err != nil {
		t.Fatal(err)
	}
	conn := rawDial(t, srv)

	req := &Message{Type: Confirmable, Code: CodePOST, MessageID: 99, Token: []byte{5}}
	data, _ := req.Marshal()
	ack1 := rawExchange(t, conn, data)
	entries := srv.ExportDedup()
	if len(entries) != 1 {
		t.Fatalf("exported %d entries, want 1", len(entries))
	}
	srv.Close()

	// A "restarted" server on the same port, with a handler that would
	// betray a re-ingest by answering differently.
	lc, err := net.ListenUDP("udp", srv.Addr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := Serve(lc, func(req *Message) *Message {
		atomic.AddInt64(&calls, 1)
		return &Message{Code: CodeChanged, Payload: []byte("v2")}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.RestoreDedup(entries)

	ack2 := rawExchange(t, conn, data)
	if !bytes.Equal(ack1, ack2) {
		t.Error("restored server did not replay the pre-restart ACK")
	}
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Errorf("handler ran %d times across the restart, want once", got)
	}
}

// TestServerDedupMessageIDWrap: once a client's 16-bit Message ID wraps
// within EXCHANGE_LIFETIME, a reused ID arrives with a fresh token. That
// is a new exchange: it must reach the handler, not be answered with the
// old exchange's cached ACK (whose token the client would drop). A
// retransmission of the new exchange must still be absorbed.
func TestServerDedupMessageIDWrap(t *testing.T) {
	var calls int64
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message {
		atomic.AddInt64(&calls, 1)
		return &Message{Code: CodeChanged, Payload: req.Payload}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.AckTimeout = 50 * time.Millisecond
	cli.MaxRetransmit = 2

	do := func(tok byte, payload string) *Message {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		resp, err := cli.Do(ctx, &Message{Code: CodePOST, Token: []byte{tok}, Payload: []byte(payload)})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	mid := cli.nextMID
	do(1, "old")
	cli.nextMID = mid // 65,536 exchanges later, the same Message ID again
	if resp := do(2, "new"); string(resp.Payload) != "new" {
		t.Fatalf("reused Message ID answered %q, want the new exchange's reply", resp.Payload)
	}
	if got := atomic.LoadInt64(&calls); got != 2 {
		t.Fatalf("handler ran %d times, want 2", got)
	}

	// Retransmit the new exchange byte for byte from the same socket: the
	// cached ACK for it comes back and the handler does not run again.
	data, err := (&Message{Type: Confirmable, Code: CodePOST, MessageID: mid, Token: []byte{2}, Payload: []byte("new")}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.conn.Write(data); err != nil {
		t.Fatal(err)
	}
	cli.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 1024)
	n, err := cli.conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := Unmarshal(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if ack.MessageID != mid || !bytes.Equal(ack.Token, []byte{2}) || string(ack.Payload) != "new" {
		t.Errorf("replayed ACK = %+v, want the new exchange's", ack)
	}
	if got := atomic.LoadInt64(&calls); got != 2 {
		t.Errorf("handler ran %d times after a retransmission, want 2", got)
	}
	if st := srv.Stats(); st.Deduped != 1 || st.Handled != 2 {
		t.Errorf("stats = %+v, want 1 deduped, 2 handled", st)
	}
}

// TestDedupPurgeSkipsReplacedSlots: an exchange replaced by a newer one
// with the same Message ID leaves a stale slot in the expiry order. The
// purge must pass over it, neither stopping at it (the newer entry is
// young) nor deleting the newer entry when the old slot's age is up.
func TestDedupPurgeSkipsReplacedSlots(t *testing.T) {
	const life = time.Minute
	s := &Server{cfg: ServerConfig{ExchangeLifetime: life}, dedup: make(map[dedupKey]*exchange)}
	t0 := time.Unix(1000, 0)
	a := dedupKey{peer: "p", mid: 1}
	b := dedupKey{peer: "p", mid: 2}
	s.admitLocked(a, []byte{1}, t0)
	s.admitLocked(b, []byte{1}, t0.Add(time.Second))
	newer, dup := s.admitLocked(a, []byte{2}, t0.Add(2*time.Second))
	if dup {
		t.Fatal("a reused Message ID with a new token counted as a duplicate")
	}

	// b's lifetime is up, the newer entry for a is still young.
	now := t0.Add(life + 1500*time.Millisecond)
	s.purgeLocked(now)
	if _, ok := s.dedup[b]; ok {
		t.Error("expired entry survived behind a replaced slot")
	}
	if s.dedup[a] != newer {
		t.Error("purge of the replaced slot deleted the newer entry")
	}
	if len(s.order) != 1 {
		t.Errorf("order holds %d slots, want 1", len(s.order))
	}
	if ex, dup := s.admitLocked(a, []byte{2}, now); !dup || ex != newer {
		t.Error("retransmission of the newer exchange not recognised")
	}
}

// TestClientResponseOutlivesNextExchange: the client reads every response
// into one buffer, so a returned message must not alias it — the first
// response's token and payload stay intact after a second exchange.
func TestClientResponseOutlivesNextExchange(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message {
		return &Message{Code: CodeContent, Payload: req.Payload}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	first, err := cli.Do(ctx, &Message{Code: CodePOST, Token: []byte{1, 2, 3, 4}, Payload: []byte("first!")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Do(ctx, &Message{Code: CodePOST, Token: []byte{5, 6, 7, 8}, Payload: []byte("second")}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Token, []byte{1, 2, 3, 4}) || string(first.Payload) != "first!" {
		t.Errorf("first response changed under the second exchange: token %x payload %q", first.Token, first.Payload)
	}
}
