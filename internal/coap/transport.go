package coap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Handler processes an incoming request and returns the response message
// (its Type/MessageID/Token are filled in by the server).
type Handler func(req *Message) *Message

// ServerConfig tunes the server's robustness machinery. The zero value
// selects the defaults noted on each field.
type ServerConfig struct {
	// Workers is the number of handler goroutines (default 8). The read
	// loop never calls the handler inline, so one slow request cannot
	// stall reads.
	Workers int
	// QueueDepth bounds requests waiting for a free worker (default 64).
	// When the queue is full the request is dropped and counted; a
	// confirmable sender recovers by retransmitting.
	QueueDepth int
	// ExchangeLifetime is how long a (peer, MessageID) exchange stays in
	// the deduplication cache (RFC 7252 §4.8.2 EXCHANGE_LIFETIME,
	// default 247s).
	ExchangeLifetime time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ExchangeLifetime <= 0 {
		c.ExchangeLifetime = 247 * time.Second
	}
	return c
}

// ServerStats counts server activity; all fields are cumulative. It is a
// snapshot view over the server's telemetry counters, so the same numbers
// appear here and on a /metrics exposition of the shared registry.
type ServerStats struct {
	// Received counts well-formed requests read off the socket.
	Received int64
	// Handled counts handler invocations (each exchange exactly once).
	Handled int64
	// Deduped counts retransmissions absorbed by the exchange cache,
	// including retransmissions of exchanges still being handled.
	Deduped int64
	// Dropped counts requests discarded because the worker queue was full.
	Dropped int64
	// Malformed counts datagrams that failed to parse.
	Malformed int64
}

// CoAP-stage metric names. Registered against the gateway's registry when
// the server is built with WithTelemetry; against a private registry
// otherwise, so ServerStats always has a backing store.
const (
	metricCoAPReceived   = "dice_coap_received_total"
	metricCoAPHandled    = "dice_coap_handled_total"
	metricCoAPDeduped    = "dice_coap_deduped_total"
	metricCoAPDropped    = "dice_coap_dropped_total"
	metricCoAPMalformed  = "dice_coap_malformed_total"
	metricCoAPQueueDepth = "dice_coap_queue_depth"
)

// srvMetrics is the telemetry backing of ServerStats plus the worker-pool
// queue gauge.
type srvMetrics struct {
	received   *telemetry.Counter
	handled    *telemetry.Counter
	deduped    *telemetry.Counter
	dropped    *telemetry.Counter
	malformed  *telemetry.Counter
	queueDepth *telemetry.Gauge
}

func newSrvMetrics(reg *telemetry.Registry) srvMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return srvMetrics{
		received:   reg.Counter(metricCoAPReceived, "Well-formed CoAP requests read off the socket."),
		handled:    reg.Counter(metricCoAPHandled, "Handler invocations (each exchange exactly once)."),
		deduped:    reg.Counter(metricCoAPDeduped, "Retransmissions absorbed by the RFC 7252 exchange cache."),
		dropped:    reg.Counter(metricCoAPDropped, "Requests shed because the worker queue was full."),
		malformed:  reg.Counter(metricCoAPMalformed, "Datagrams that failed to parse."),
		queueDepth: reg.Gauge(metricCoAPQueueDepth, "Requests currently waiting for or held by a worker."),
	}
}

// dedupKey identifies one exchange per RFC 7252 §4.5: the source endpoint
// plus the Message ID.
type dedupKey struct {
	peer string
	mid  uint16
}

// exchange is one dedup-cache entry. resp stays nil while the handler is
// still running; a retransmission arriving in that window is silently
// absorbed (the sender's next retransmission finds the cached response).
// token is the request's token, which the response echoes. A datagram is
// a retransmission only when its token matches too: once a client's
// 16-bit Message ID wraps within EXCHANGE_LIFETIME, a reused ID arrives
// with a fresh token and is a new exchange.
type exchange struct {
	key   dedupKey
	token []byte
	resp  []byte
	born  time.Time
}

type job struct {
	req  *Message
	peer net.Addr
	ex   *exchange
	con  bool
}

// Server is a minimal CoAP-over-UDP server: it answers confirmable and
// non-confirmable requests through a single handler, deduplicating
// retransmitted exchanges and dispatching handlers on a bounded worker
// pool.
type Server struct {
	conn    net.PacketConn
	handler Handler
	cfg     ServerConfig
	queue   chan job
	done    chan struct{} // closed by Close, releases the context watcher

	mu     sync.Mutex // guards closed, dedup, order and every exchange
	closed bool
	dedup  map[dedupKey]*exchange
	order  []*exchange // insertion order, for expiry

	met srvMetrics

	serveWG  sync.WaitGroup
	workerWG sync.WaitGroup
}

// ServerOption configures a Server at construction.
type ServerOption func(*srvOptions)

type srvOptions struct {
	cfg ServerConfig
	tel *telemetry.Registry
	ctx context.Context
}

// WithServerConfig replaces the whole tuning config.
func WithServerConfig(cfg ServerConfig) ServerOption {
	return func(o *srvOptions) { o.cfg = cfg }
}

// WithWorkers sets the handler goroutine count.
func WithWorkers(n int) ServerOption {
	return func(o *srvOptions) { o.cfg.Workers = n }
}

// WithQueueDepth bounds requests waiting for a free worker.
func WithQueueDepth(n int) ServerOption {
	return func(o *srvOptions) { o.cfg.QueueDepth = n }
}

// WithExchangeLifetime sets the dedup-cache entry lifetime.
func WithExchangeLifetime(d time.Duration) ServerOption {
	return func(o *srvOptions) { o.cfg.ExchangeLifetime = d }
}

// WithTelemetry registers the server's counters against a shared registry
// (typically the gateway's) instead of a private one, so they appear on
// the /metrics exposition.
func WithTelemetry(reg *telemetry.Registry) ServerOption {
	return func(o *srvOptions) { o.tel = reg }
}

// WithContext ties the server's lifetime to ctx: when ctx is cancelled the
// server closes itself (read loop and workers drain and exit), replacing
// ad-hoc stop channels with the standard cancellation surface. Equivalent
// to ServeContext.
func WithContext(ctx context.Context) ServerOption {
	return func(o *srvOptions) { o.ctx = ctx }
}

// ListenAndServe starts a server on addr (e.g. "127.0.0.1:5683"); pass
// port 0 to pick a free port. The returned server is already serving.
func ListenAndServe(addr string, handler Handler, opts ...ServerOption) (*Server, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("coap: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("coap: listen: %w", err)
	}
	s, err := Serve(conn, handler, opts...)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return s, nil
}

// Serve serves CoAP on an existing packet conn (which may be a
// fault-injecting wrapper) and takes ownership of it. The returned server
// is already serving. It is ServeContext with a background context —
// lifetime managed solely through Close.
func Serve(conn net.PacketConn, handler Handler, opts ...ServerOption) (*Server, error) {
	return ServeContext(context.Background(), conn, handler, opts...)
}

// ServeContext is the canonical constructor: it serves CoAP on conn until
// ctx is cancelled or Close is called, whichever comes first. The returned
// server is already serving.
func ServeContext(ctx context.Context, conn net.PacketConn, handler Handler, opts ...ServerOption) (*Server, error) {
	if handler == nil {
		return nil, errors.New("coap: nil handler")
	}
	if conn == nil {
		return nil, errors.New("coap: nil conn")
	}
	o := srvOptions{ctx: ctx}
	for _, opt := range opts {
		opt(&o)
	}
	cfg := o.cfg.withDefaults()
	s := &Server{
		conn:    conn,
		handler: handler,
		cfg:     cfg,
		queue:   make(chan job, cfg.QueueDepth),
		done:    make(chan struct{}),
		dedup:   make(map[dedupKey]*exchange),
		met:     newSrvMetrics(o.tel),
	}
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	s.serveWG.Add(1)
	go s.serve()
	if o.ctx != nil && o.ctx.Done() != nil {
		go func() {
			select {
			case <-o.ctx.Done():
				s.Close() //nolint:errcheck // conn close error surfaces nowhere useful here
			case <-s.done:
			}
		}()
	}
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() net.Addr {
	return s.conn.LocalAddr()
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Received:  s.met.received.Value(),
		Handled:   s.met.handled.Value(),
		Deduped:   s.met.deduped.Value(),
		Dropped:   s.met.dropped.Value(),
		Malformed: s.met.malformed.Value(),
	}
}

// Close stops the server and waits for the read loop and workers to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	err := s.conn.Close()
	s.serveWG.Wait() // serve() is the only sender on queue
	close(s.queue)
	s.workerWG.Wait()
	return err
}

func (s *Server) serve() {
	defer s.serveWG.Done()
	buf := make([]byte, 64*1024)
	for {
		n, peer, err := s.conn.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		req, err := Unmarshal(buf[:n])
		if err != nil {
			s.met.malformed.Inc()
			continue // drop malformed datagrams
		}
		if req.Type != Confirmable && req.Type != NonConfirmable {
			continue // we never originate requests, so ACK/RST are stray
		}
		key := dedupKey{peer: peer.String(), mid: req.MessageID}

		s.met.received.Inc()
		s.mu.Lock()
		ex, dup := s.admitLocked(key, req.Token, time.Now())
		if dup {
			// RFC 7252 §4.5: a retransmitted exchange must not reach the
			// handler again. Replay the cached piggybacked ACK for a
			// Confirmable retransmission; while the original is still in
			// flight (resp == nil), or for a NON duplicate, stay silent.
			s.met.deduped.Inc()
			resp := ex.resp
			s.mu.Unlock()
			if resp != nil && req.Type == Confirmable {
				s.conn.WriteTo(resp, peer) //nolint:errcheck // peer retransmits on loss
			}
			continue
		}
		s.mu.Unlock()

		select {
		case s.queue <- job{req: req, peer: peer, ex: ex, con: req.Type == Confirmable}:
			s.met.queueDepth.Add(1)
		default:
			// Queue full: shed the request. Forget the exchange so the
			// sender's retransmission gets a fresh chance at a worker.
			s.mu.Lock()
			delete(s.dedup, key)
			s.mu.Unlock()
			s.met.dropped.Inc()
		}
	}
}

// admitLocked looks up a request from key carrying token. A datagram whose
// Message ID and token both match a cached exchange is a retransmission:
// admitLocked returns that exchange and dup = true. Otherwise it registers
// and returns a new exchange born at now, replacing any older exchange
// that reused the Message ID with another token.
func (s *Server) admitLocked(key dedupKey, token []byte, now time.Time) (ex *exchange, dup bool) {
	s.purgeLocked(now)
	if e, ok := s.dedup[key]; ok && bytes.Equal(e.token, token) {
		return e, true
	}
	ex = &exchange{key: key, token: token, born: now}
	s.dedup[key] = ex
	s.order = append(s.order, ex)
	return ex, false
}

// live reports whether e is still the cache entry for its key; one that
// is not was shed by the queue-full path or replaced by a newer exchange
// reusing its Message ID.
func (s *Server) live(e *exchange) bool { return s.dedup[e.key] == e }

// purgeLocked expires exchanges older than ExchangeLifetime. Entries are
// appended to order at birth, so the prefix is oldest-first. A slot whose
// entry is no longer live is dropped without looking at its age, so it
// neither holds up the purge nor deletes the entry that replaced it.
func (s *Server) purgeLocked(now time.Time) {
	cut := 0
	for _, e := range s.order {
		if s.live(e) {
			if now.Sub(e.born) < s.cfg.ExchangeLifetime {
				break
			}
			delete(s.dedup, e.key)
		}
		cut++
	}
	if cut > 0 {
		s.order = append(s.order[:0], s.order[cut:]...)
	}
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for jb := range s.queue {
		s.met.queueDepth.Add(-1)
		resp := s.handler(jb.req)
		if resp == nil {
			resp = &Message{Code: CodeNotFound}
		}
		if jb.con {
			// Piggybacked response (RFC 7252 §5.2.1).
			resp.Type = Acknowledgement
		} else {
			resp.Type = NonConfirmable
		}
		resp.MessageID = jb.req.MessageID
		resp.Token = jb.req.Token
		data, err := resp.Marshal()

		s.met.handled.Inc()
		if err != nil {
			continue
		}
		s.mu.Lock()
		jb.ex.resp = data
		s.mu.Unlock()
		s.conn.WriteTo(data, jb.peer) //nolint:errcheck // peer retransmits on loss
	}
}

// DedupEntry is the persisted form of one completed exchange, exported for
// gateway checkpoints so a restarted gateway keeps absorbing retransmissions
// of pre-crash requests instead of double-ingesting them. The exchange's
// token is the one inside Response.
type DedupEntry struct {
	Peer      string `json:"peer"`
	MessageID uint16 `json:"mid"`
	Response  []byte `json:"resp"`
	AgeMS     int64  `json:"age_ms"`
}

// ExportDedup snapshots the completed exchanges in the dedup cache,
// oldest first. In-flight exchanges (handler still running) are skipped —
// their effects are not yet in any checkpointed state, so replaying them
// after a restart is exactly once, not twice.
func (s *Server) ExportDedup() []DedupEntry {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []DedupEntry
	for _, e := range s.order {
		if !s.live(e) || e.resp == nil {
			continue
		}
		out = append(out, DedupEntry{
			Peer:      e.key.peer,
			MessageID: e.key.mid,
			Response:  e.resp,
			AgeMS:     now.Sub(e.born).Milliseconds(),
		})
	}
	return out
}

// RestoreDedup seeds the dedup cache from a checkpoint. Entries whose
// remaining lifetime has already elapsed, or whose response does not
// parse, are skipped.
func (s *Server) RestoreDedup(entries []DedupEntry) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, en := range entries {
		age := time.Duration(en.AgeMS) * time.Millisecond
		if age >= s.cfg.ExchangeLifetime {
			continue
		}
		key := dedupKey{peer: en.Peer, mid: en.MessageID}
		if _, ok := s.dedup[key]; ok {
			continue
		}
		resp, err := Unmarshal(en.Response)
		if err != nil {
			continue
		}
		e := &exchange{key: key, token: resp.Token, resp: en.Response, born: now.Add(-age)}
		s.dedup[key] = e
		s.order = append(s.order, e)
	}
}

// Client sends CoAP requests to one server.
type Client struct {
	conn net.Conn
	rng  *rand.Rand
	mu   sync.Mutex // held for a whole exchange; guards nextMID and buf

	// buf receives every response datagram. Unmarshal copies what it
	// keeps, so a returned *Message never aliases it, and one buffer
	// serves every exchange. It is sized for the largest UDP datagram so
	// no response is truncated.
	buf []byte

	// nextMID is the Message ID of the next exchange. RFC 7252 §4.4: a
	// random initial value incremented per message, so concurrent or
	// back-to-back exchanges never collide (a fresh random draw per
	// request could).
	nextMID uint16

	// AckTimeout is the initial retransmission timeout (RFC 7252 §4.8:
	// ACK_TIMEOUT, default 2s; the tests shrink it).
	AckTimeout time.Duration
	// MaxRetransmit bounds retransmissions (default 4).
	MaxRetransmit int
}

// Dial connects a client to a server address.
func Dial(addr string) (*Client, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("coap: resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, fmt.Errorf("coap: dial: %w", err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an existing connected datagram conn (which may be a
// fault-injecting wrapper) and takes ownership of it.
func NewClient(conn net.Conn) *Client {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	return &Client{
		conn:          conn,
		rng:           rng,
		buf:           make([]byte, 64*1024),
		nextMID:       uint16(rng.Intn(1 << 16)),
		AckTimeout:    2 * time.Second,
		MaxRetransmit: 4,
	}
}

// Close releases the client socket.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends a confirmable request and waits for the matching response,
// retransmitting with exponential backoff per RFC 7252 §4.2. The context
// bounds the whole exchange.
func (c *Client) Do(ctx context.Context, req *Message) (*Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	req.Type = Confirmable
	req.MessageID = c.nextMID
	c.nextMID++
	if len(req.Token) == 0 {
		tok := make([]byte, 4)
		c.rng.Read(tok)
		req.Token = tok
	}
	data, err := req.Marshal()
	if err != nil {
		return nil, err
	}

	timeout := c.AckTimeout
	for attempt := 0; attempt <= c.MaxRetransmit; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := c.conn.Write(data); err != nil {
			return nil, fmt.Errorf("coap: send: %w", err)
		}
		deadline := time.Now().Add(timeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return nil, err
		}
		for {
			n, err := c.conn.Read(c.buf)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					break // retransmit
				}
				return nil, fmt.Errorf("coap: recv: %w", err)
			}
			resp, err := Unmarshal(c.buf[:n])
			if err != nil {
				continue // drop malformed
			}
			if !bytes.Equal(resp.Token, req.Token) {
				continue // stale response from an earlier exchange
			}
			if resp.Type == Acknowledgement && resp.MessageID != req.MessageID {
				continue // ACK for a different exchange
			}
			return resp, nil
		}
		timeout *= 2
	}
	return nil, fmt.Errorf("coap: no response after %d attempts", c.MaxRetransmit+1)
}
