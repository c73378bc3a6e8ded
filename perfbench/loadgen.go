package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"priview/internal/noise"
)

// The load generator is one process driving the server over a fixed
// set of keep-alive connections, one per CPU. Arrivals are open loop: a
// Poisson schedule fixed before the rung starts says when each request
// is due, a dispatcher releases each request at its due time whatever
// the server is doing, and every latency is measured from the due time,
// so time a request spends waiting for a free connection counts.

// request is one scheduled HTTP request.
type request struct {
	due   time.Duration // offset from the rung's start
	batch bool
	raw   []byte // the encoded HTTP request
	sets  [][]int
	keep  bool // keep the response body for the correctness gate
	// traced requests record when their first response byte arrived.
	traced bool
}

// outcome is what happened to one request, as offsets from the rung's
// start: a span from due to end.
type outcome struct {
	dispatched, started, firstByte, ended time.Duration
	status, bytes                         int
	err                                   error
	body                                  []byte
	sent                                  bool
}

func (o *outcome) ok() bool { return o.sent && o.err == nil && o.status/100 == 2 }

// rungResult is one rung of the ladder.
type rungResult struct {
	rate     float64
	duration time.Duration
	// closed marks a closed-loop rung, whose requests are due when sent.
	closed bool
	reqs   []request
	out    []outcome
	// backlog counts requests that were due but not yet sent when the
	// schedule ended; abandoned counts those never sent at all.
	backlog, abandoned int
}

// poisson draws arrival offsets at rate per second over d.
func poisson(s *noise.Stream, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-s.Float64()) / rate
		if t >= d.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(s *noise.Stream) int {
	i := sort.SearchFloat64s(z.cdf, s.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// loadgen holds the generator's keep-alive connections to one server.
// Each connection speaks plain HTTP/1.1 from pre-encoded request bytes:
// net/http's client spends more CPU per request than a cached answer
// costs the server, and on a small machine that CPU comes out of the
// server's share.
type loadgen struct {
	addr  string
	conns []*conn
}

// conn is one keep-alive connection, redialled after any error.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func newLoadgen(addr string, conns int) *loadgen {
	g := &loadgen{addr: addr}
	for i := 0; i < conns; i++ {
		g.conns = append(g.conns, &conn{addr: addr})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.conns {
		c.drop()
	}
}

func (c *conn) drop() {
	if c.c != nil {
		//lint:ignore errdiscard the connection is dropped after an error or at the end; a close error changes nothing
		c.c.Close()
		c.c, c.br = nil, nil
	}
}

// roundTrip writes one encoded request and reads its response. It
// calls firstByte, when non-nil, as the first response byte arrives.
// The returned body aliases the connection's buffer until the next
// round trip.
func (c *conn) roundTrip(raw []byte, firstByte func()) (status int, body []byte, err error) {
	if c.c == nil {
		if c.c, err = net.DialTimeout("tcp", c.addr, 5*time.Second); err != nil {
			c.c = nil
			return 0, nil, err
		}
		c.br = bufio.NewReaderSize(c.c, 64<<10)
	}
	//lint:ignore errdiscard a deadline on a live TCP connection cannot fail in a way the read below would not report
	_ = c.c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err = c.c.Write(raw); err != nil {
		c.drop()
		return 0, nil, err
	}
	if firstByte != nil {
		if _, err = c.br.Peek(1); err != nil {
			c.drop()
			return 0, nil, err
		}
		firstByte()
	}
	status, keepAlive, err := c.readResponse()
	if err != nil || !keepAlive {
		c.drop()
	}
	return status, c.body, err
}

// readResponse reads one HTTP/1.1 response into c.body without
// allocating per request: the generator's own garbage collections
// would otherwise stall its dispatcher. It understands exactly what
// net/http servers send: a Content-Length or a chunked body.
func (c *conn) readResponse() (status int, keepAlive bool, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, keepAlive := -1, false, true
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, false, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			keepAlive = !bytes.EqualFold(value, []byte("close"))
		}
	}
	c.body = c.body[:0]
	if !chunked {
		if length < 0 {
			return 0, false, errors.New("response has neither Content-Length nor a chunked body")
		}
		return status, keepAlive, c.readBody(length)
	}
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		size, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 64)
		if err != nil {
			return 0, false, fmt.Errorf("malformed chunk size %q", line)
		}
		if size == 0 {
			_, err = c.br.ReadSlice('\n') // the empty trailer
			return status, keepAlive, err
		}
		if err := c.readBody(int(size)); err != nil {
			return 0, false, err
		}
		if _, err := c.br.Discard(2); err != nil {
			return 0, false, err
		}
	}
}

// readBody appends n body bytes to c.body.
func (c *conn) readBody(n int) error {
	start := len(c.body)
	if cap(c.body) < start+n {
		grown := make([]byte, start, 2*(start+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

// encodeRequest renders one HTTP/1.1 request.
func encodeRequest(host, method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, host)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// grace is how long after a rung's schedule ends the connections keep
// sending requests that are still waiting; the rest are abandoned.
const grace = time.Second

// run plays one open-loop rung: it releases reqs at their due times,
// sends them over the generator's connections and records every
// outcome.
func (g *loadgen) run(ctx context.Context, reqs []request, d time.Duration) *rungResult {
	res := &rungResult{duration: d, reqs: reqs, out: make([]outcome, len(reqs))}
	defer quiet()()
	res.rate = float64(len(reqs)) / d.Seconds()
	queue := make(chan int, len(reqs)) // sized to the number of sends
	var started atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range g.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := range queue {
				if time.Since(t0) > d+grace || ctx.Err() != nil {
					continue // abandoned: never sent
				}
				started.Add(1)
				c.send(&reqs[i], &res.out[i], t0)
			}
		}(c)
	}
	for i := range reqs {
		sleepUntil(t0.Add(reqs[i].due))
		res.out[i].dispatched = time.Since(t0)
		queue <- i
	}
	close(queue)
	sleepUntil(t0.Add(d))
	res.backlog = len(reqs) - int(started.Load())
	wg.Wait()
	res.abandoned = len(reqs) - int(started.Load())
	return res
}

// saturate plays a closed-loop rung: every connection sends the next
// request of reqs the moment its last response has arrived, until d has
// passed or reqs run out. A request is due when it is sent, so the rung
// measures how fast the server answers, not how long requests wait.
func (g *loadgen) saturate(ctx context.Context, reqs []request, d time.Duration) *rungResult {
	res := &rungResult{duration: d, reqs: reqs, out: make([]outcome, len(reqs)), closed: true}
	defer quiet()()
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range g.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for time.Since(t0) < d && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				reqs[i].due = time.Since(t0)
				res.out[i].dispatched = reqs[i].due
				c.send(&reqs[i], &res.out[i], t0)
			}
		}(c)
	}
	wg.Wait()
	return res
}

// quiet prepares the generator for a rung and returns the function that
// undoes it. The generator collects its garbage between rungs, not
// during them: a collection's mark phase holds a CPU the dispatcher
// needs, and a rung allocates little besides the kept response bodies.
// While the rung plays its threads run at real-time priority.
func quiet() func() {
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	rt := realtime(true)
	return func() {
		if rt {
			realtime(false)
		}
		debug.SetGCPercent(gc)
	}
}

// send makes one request over c and records its outcome as offsets
// from t0.
func (c *conn) send(q *request, o *outcome, t0 time.Time) {
	var firstByte func()
	if q.traced {
		firstByte = func() { o.firstByte = time.Since(t0) }
	}
	o.sent = true
	o.started = time.Since(t0)
	var body []byte
	o.status, body, o.err = c.roundTrip(q.raw, firstByte)
	o.ended = time.Since(t0)
	o.bytes = len(body)
	if q.keep {
		o.body = append([]byte(nil), body...)
	}
}

// sleepUntil sleeps with nanosleep rather than time.Sleep: an idle Go
// runtime wakes its timers with millisecond granularity, which would be
// most of a cached request's latency.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		//lint:ignore errdiscard an interrupted sleep is retried by the loop
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// throughputWindow is the window a closed-loop rung's completion rate
// is counted in.
const throughputWindow = 500 * time.Millisecond

// windowRates splits a closed-loop rung into windows and returns the
// completion rate in requests per second of each, so that max_rps can
// be a median over windows and a stall of the machine moves one window,
// not the figure. Windows after the last send, when the rung ran out of
// requests before its time, are not counted.
func (res *rungResult) windowRates() []float64 {
	if len(res.out) == 0 {
		return nil
	}
	span := res.duration
	if last := res.out[len(res.out)-1]; last.sent && last.started < span {
		span = last.started
	}
	w := throughputWindow
	n := int(span / w)
	if n == 0 {
		n, w = 1, span
	}
	rates := make([]float64, n)
	for i := range res.out {
		if o := &res.out[i]; o.ok() && o.ended < time.Duration(n)*w {
			rates[o.ended/w] += 1 / w.Seconds()
		}
	}
	return rates
}

// rungStats summarizes one rung from the client's side.
type rungStats struct {
	single, batch   []time.Duration // latency from due to end, successful requests
	service         []time.Duration // sent to end, successful singles
	lag             []time.Duration // dispatch minus due
	singleBytes     []int
	attempted, fail int
	completed       int
}

func (res *rungResult) stats() rungStats {
	var st rungStats
	for i := range res.reqs {
		o := &res.out[i]
		if !res.closed {
			st.lag = append(st.lag, o.dispatched-res.reqs[i].due)
		}
		if !o.sent {
			continue
		}
		st.attempted++
		if !o.ok() {
			st.fail++
			continue
		}
		st.completed++
		lat := o.ended - res.reqs[i].due
		if res.reqs[i].batch {
			st.batch = append(st.batch, lat)
			continue
		}
		st.single = append(st.single, lat)
		st.service = append(st.service, o.ended-o.started)
		st.singleBytes = append(st.singleBytes, o.bytes)
	}
	return st
}
