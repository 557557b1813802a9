package batchwire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The client discipline, tested once for both protocols. Nothing here sleeps
// or measures elapsed time: the endpoint is a scripted http.RoundTripper, the
// clock is the client's now/after seam, and concurrency is gated on channels.

const testProto = Proto("wiretest")

// step is one scripted answer of the fake endpoint.
type step func(*http.Request) (*http.Response, error)

func status(code int, body string) step {
	return func(*http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode:    code,
			Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
			Header:        http.Header{},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: -1,
		}, nil
	}
}

func transportError(msg string) step {
	return func(*http.Request) (*http.Response, error) { return nil, errors.New(msg) }
}

// resetMidBody answers 200 and then fails the body read part-way: the
// connection died after the status line.
func resetMidBody() step {
	return func(*http.Request) (*http.Response, error) {
		body := io.MultiReader(strings.NewReader(replyFrame(7, 8)[:4]), errReader{io.ErrUnexpectedEOF})
		return &http.Response{StatusCode: 200, Status: "200 OK", Header: http.Header{}, Body: io.NopCloser(body), ContentLength: -1}, nil
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// endpoint is a scripted http.RoundTripper: request i gets script[i], the
// last step repeating, and every request is counted.
type endpoint struct {
	hits   atomic.Int64
	script []step
}

func (e *endpoint) RoundTrip(r *http.Request) (*http.Response, error) {
	i := int(e.hits.Add(1)) - 1
	if i >= len(e.script) {
		i = len(e.script) - 1
	}
	return e.script[i](r)
}

// fakeClock stands behind a client's now/after seam: after returns an
// already-fired channel and moves now forward by the requested pause, so a
// test reads the backoffs a call asked for instead of waiting them out.
type fakeClock struct {
	mu     sync.Mutex
	t      time.Time
	pauses []time.Duration
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) after(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
	f.pauses = append(f.pauses, d)
	ch := make(chan time.Time, 1)
	ch <- f.t
	return ch
}

// newTestClient builds a client over the scripted endpoint and a fake clock.
func newTestClient(t *testing.T, cfg Config, script ...step) (*Client, *endpoint, *fakeClock) {
	t.Helper()
	ep := &endpoint{script: script}
	cfg.HTTPClient = &http.Client{Transport: ep}
	c, err := testProto.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{t: time.Date(2022, 5, 9, 0, 0, 0, 0, time.UTC)}
	c.now, c.after = clock.now, clock.after
	return c, ep, clock
}

// reply is the test protocol's answer: a frame holding a uvarint n and a
// padding string, so a test can size a body to the byte.
type reply struct{ N uint64 }

func (p *reply) decode(b []byte) error {
	r := NewReader(b)
	p.N = r.Uvarint()
	r.String("")
	return r.Done()
}

// replyFrame encodes a reply of n with pad padding bytes: 3+pad bytes for n<128.
func replyFrame(n uint64, pad int) string {
	b := binary.AppendUvarint([]byte{Version}, n)
	return string(AppendString(b, strings.Repeat("x", pad)))
}

func wantCounters(t *testing.T, c *Client, requests, retries int64) {
	t.Helper()
	if gotReq, gotRet := c.Counters(); gotReq != requests || gotRet != retries {
		t.Fatalf("counters = %d requests / %d retries, want %d / %d", gotReq, gotRet, requests, retries)
	}
}

func TestNewClientValidatesAndDefaults(t *testing.T) {
	for _, bad := range []Config{
		{Retries: -2}, {MaxConcurrent: -1}, {Timeout: -time.Second}, {RetryBackoff: -time.Second},
	} {
		if _, err := testProto.NewClient(bad); err == nil || !strings.HasPrefix(err.Error(), "wiretest: ") {
			t.Errorf("NewClient(%+v) = %v, want a wiretest-prefixed error", bad, err)
		}
	}
	c, err := testProto.NewClient(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.HTTPClient == nil || c.cfg.Timeout != 30*time.Second || c.cfg.Retries != 2 ||
		c.cfg.RetryBackoff != 100*time.Millisecond || cap(c.sem) != 4 || c.maxResponse != MaxResponseBytes {
		t.Fatalf("defaults = %+v, sem %d, maxResponse %d", c.cfg, cap(c.sem), c.maxResponse)
	}
}

// TestRetriesOn5xxThenSucceeds: every retryable failure — a 5xx answer, a
// transport error, a connection reset after the 200 status — is retried
// after one backoff each, and the call succeeds once the endpoint does.
func TestRetriesOn5xxThenSucceeds(t *testing.T) {
	cases := []struct {
		name   string
		script []step
	}{
		{"5xx twice", []step{status(500, "transient"), status(503, "still"), status(200, replyFrame(7, 0))}},
		{"transport error", []step{transportError("connection refused"), status(200, replyFrame(7, 0))}},
		{"reset mid-body", []step{resetMidBody(), status(200, replyFrame(7, 0))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, ep, clock := newTestClient(t, Config{Retries: 2, RetryBackoff: 250 * time.Millisecond}, tc.script...)
			var got reply
			if err := c.Post(context.Background(), "http://endpoint/x", []byte(`{}`), got.decode); err != nil {
				t.Fatal(err)
			}
			if got.N != 7 {
				t.Fatalf("decoded %+v, want n=7", got)
			}
			failures := int64(len(tc.script) - 1)
			if ep.hits.Load() != failures+1 {
				t.Fatalf("endpoint saw %d requests, want %d", ep.hits.Load(), failures+1)
			}
			wantCounters(t, c, failures+1, failures)
			if len(clock.pauses) != int(failures) {
				t.Fatalf("backed off %v, want %d pauses", clock.pauses, failures)
			}
			for _, p := range clock.pauses {
				if p != 250*time.Millisecond {
					t.Fatalf("backed off %v, want RetryBackoff each time", clock.pauses)
				}
			}
		})
	}
}

// TestRetriesAreBounded: a persistently failing endpoint sees 1 + Retries
// attempts, and the last answer is the error.
func TestRetriesAreBounded(t *testing.T) {
	c, ep, _ := newTestClient(t, Config{Retries: 2}, status(503, "down"))
	err := c.Post(context.Background(), "http://endpoint/x", []byte(`{}`), new(reply).decode)
	if err == nil || !strings.Contains(err.Error(), "wiretest: endpoint returned 503 Service Unavailable: down") {
		t.Fatalf("err = %v, want the endpoint's last answer", err)
	}
	if got := ep.hits.Load(); got != 3 {
		t.Fatalf("made %d attempts, want 3 (1 + 2 retries)", got)
	}
	wantCounters(t, c, 3, 2)
}

// TestRetriesMinusOneDisablesRetries: Retries -1 means exactly one attempt —
// for an endpoint that must never see the same batch twice.
func TestRetriesMinusOneDisablesRetries(t *testing.T) {
	c, ep, clock := newTestClient(t, Config{Retries: -1}, status(503, "down"))
	if err := c.Post(context.Background(), "http://endpoint/x", []byte(`{}`), new(reply).decode); err == nil {
		t.Fatal("5xx did not fail the call")
	}
	if got := ep.hits.Load(); got != 1 {
		t.Fatalf("made %d attempts with Retries: -1, want exactly 1", got)
	}
	wantCounters(t, c, 1, 0)
	if len(clock.pauses) != 0 {
		t.Fatalf("backed off %v with retries disabled", clock.pauses)
	}
}

// TestTerminalAnswers: answers that say the exchange itself is wrong end the
// call at once — one request, no backoff, whatever Retries allows.
func TestTerminalAnswers(t *testing.T) {
	declared := func(r *http.Request) (*http.Response, error) {
		resp, _ := status(200, replyFrame(1, 0))(r)
		resp.ContentLength = 65 // over the test's 64-byte bound, refused unread
		return resp, nil
	}
	cases := []struct {
		name    string
		answer  step
		wantErr string
	}{
		{"4xx", status(400, "no such class\n"), "wiretest: endpoint returned 400 Bad Request: no such class"},
		{"corrupt 200", status(200, "\x01\xff"), "wiretest: decode response: "},
		{"empty 200", status(200, ``), "wiretest: decode response: "},
		{"oversized 200, length declared", declared, "wiretest: response exceeds the 64-byte limit"},
		{"oversized 200, length undeclared", status(200, replyFrame(1, 62)), "wiretest: response exceeds the 64-byte limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, ep, clock := newTestClient(t, Config{Retries: 5}, tc.answer)
			c.maxResponse = 64
			err := c.Post(context.Background(), "http://endpoint/x", []byte(`{}`), new(reply).decode)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
			if got := ep.hits.Load(); got != 1 {
				t.Fatalf("made %d attempts, want 1 (terminal)", got)
			}
			wantCounters(t, c, 1, 0)
			if len(clock.pauses) != 0 {
				t.Fatalf("backed off %v before a terminal answer", clock.pauses)
			}
		})
	}
	// A body of exactly the bound is served.
	c, _, _ := newTestClient(t, Config{}, status(200, replyFrame(1, 61)))
	c.maxResponse = 64
	var got reply
	if err := c.Post(context.Background(), "http://endpoint/x", []byte(`{}`), got.decode); err != nil || got.N != 1 {
		t.Fatalf("64-byte body under a 64-byte bound: %+v, %v", got, err)
	}
}

// deadlineCtx reports a deadline on the fake clock's timeline without arming
// a wall-clock timer: the doomed-deadline rule reads only Deadline().
type deadlineCtx struct {
	context.Context
	at time.Time
}

func (d deadlineCtx) Deadline() (time.Time, bool) { return d.at, true }

// TestDeadlineDuringBackoffIsTerminal pins the no-wasted-final-attempt rule:
// once the caller's deadline cannot outlive the next backoff the call ends
// with context.DeadlineExceeded, keeps the endpoint's last answer in the
// message, and the endpoint sees no further request.
func TestDeadlineDuringBackoffIsTerminal(t *testing.T) {
	cases := []struct {
		name         string
		remaining    time.Duration
		wantRequests int64
	}{
		{"shorter than one backoff", 50 * time.Millisecond, 1},
		{"exactly one backoff", 200 * time.Millisecond, 1},
		{"runs out after four retries", time.Second, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, ep, clock := newTestClient(t, Config{Retries: 10, RetryBackoff: 200 * time.Millisecond}, status(500, "boom"))
			ctx := deadlineCtx{context.Background(), clock.now().Add(tc.remaining)}
			err := c.Post(ctx, "http://endpoint/x", []byte(`{}`), new(reply).decode)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if !strings.Contains(err.Error(), "last attempt: wiretest: endpoint returned 500 Internal Server Error: boom") {
				t.Fatalf("err = %v, want the endpoint's last answer in the message", err)
			}
			if got := ep.hits.Load(); got != tc.wantRequests {
				t.Fatalf("endpoint saw %d requests, want %d (none after a doomed backoff)", got, tc.wantRequests)
			}
			wantCounters(t, c, tc.wantRequests, tc.wantRequests-1)
			if int64(len(clock.pauses)) != tc.wantRequests-1 {
				t.Fatalf("backed off %v, want one pause per issued retry", clock.pauses)
			}
		})
	}
}

// TestCancelDuringBackoffIsTerminal: a cancellation that fires mid-backoff
// ends the call with the context error, issues no final attempt and records
// no phantom retry.
func TestCancelDuringBackoffIsTerminal(t *testing.T) {
	c, ep, _ := newTestClient(t, Config{Retries: 3}, status(500, "boom"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.after = func(time.Duration) <-chan time.Time {
		cancel() // the caller gives up while the client is backing off
		return make(chan time.Time)
	}
	err := c.Post(ctx, "http://endpoint/x", []byte(`{}`), new(reply).decode)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ep.hits.Load(); got != 1 {
		t.Fatalf("endpoint saw %d requests, want 1", got)
	}
	wantCounters(t, c, 1, 0)
}

// TestPerEndpointConcurrencyCap: MaxConcurrent requests are in flight, the
// rest wait for a slot — and a caller whose context ends while waiting
// leaves without one.
func TestPerEndpointConcurrencyCap(t *testing.T) {
	const calls, limit = 6, 2
	var running, peak atomic.Int64
	entered := make(chan struct{}, calls)
	release := make(chan struct{})
	gate := func(r *http.Request) (*http.Response, error) {
		cur := running.Add(1)
		for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
		}
		entered <- struct{}{}
		<-release
		running.Add(-1)
		return status(200, replyFrame(1, 0))(r)
	}
	c, ep, _ := newTestClient(t, Config{MaxConcurrent: limit}, gate)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Post(context.Background(), "http://endpoint/x", []byte(`{}`), new(reply).decode); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < limit; i++ {
		<-entered
	}
	// Both slots are held until release closes, so admission can only end
	// through the context.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Post(cancelled, "http://endpoint/x", []byte(`{}`), new(reply).decode); !errors.Is(err, context.Canceled) {
		t.Fatalf("admission with both slots held and a cancelled context: err = %v, want context.Canceled", err)
	}
	if got := ep.hits.Load(); got != limit {
		t.Fatalf("endpoint saw %d requests with %d slots held, want %d", got, limit, limit)
	}
	close(release)
	wg.Wait()
	if got := peak.Load(); got != limit {
		t.Fatalf("observed %d concurrent requests, want exactly MaxConcurrent=%d", got, limit)
	}
	wantCounters(t, c, calls, 0)
}

type ctxKey struct{}

// TestAttemptContext: each attempt's context is derived from the caller's —
// values reach the RoundTripper, Config.Timeout is its deadline — so an
// expired attempt is a retryable transport failure while the caller's own
// cancellation is terminal and reported as such.
func TestAttemptContext(t *testing.T) {
	t.Run("values and timeout", func(t *testing.T) {
		var sawValue, sawDeadline atomic.Bool
		expire := func(r *http.Request) (*http.Response, error) {
			sawValue.Store(r.Context().Value(ctxKey{}) == "query-7")
			_, ok := r.Context().Deadline()
			sawDeadline.Store(ok)
			<-r.Context().Done() // the attempt outlives Config.Timeout
			return nil, r.Context().Err()
		}
		c, ep, _ := newTestClient(t, Config{Timeout: time.Nanosecond, Retries: 1}, expire)
		ctx := context.WithValue(context.Background(), ctxKey{}, "query-7")
		err := c.Post(ctx, "http://endpoint/x", []byte(`{}`), new(reply).decode)
		if !sawValue.Load() || !sawDeadline.Load() {
			t.Fatalf("RoundTripper saw value=%v deadline=%v, want both", sawValue.Load(), sawDeadline.Load())
		}
		if err == nil || !strings.HasPrefix(err.Error(), "wiretest: ") || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want a wiretest transport error wrapping the attempt's deadline", err)
		}
		if got := ep.hits.Load(); got != 2 {
			t.Fatalf("made %d attempts, want 2 (a timed-out attempt is retryable)", got)
		}
		wantCounters(t, c, 2, 1)
	})
	t.Run("caller cancels in flight", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		abort := func(r *http.Request) (*http.Response, error) {
			cancel()
			<-r.Context().Done()
			return nil, r.Context().Err()
		}
		c, ep, clock := newTestClient(t, Config{Retries: 3}, abort)
		err := c.Post(ctx, "http://endpoint/x", []byte(`{}`), new(reply).decode)
		if !errors.Is(err, context.Canceled) || strings.HasPrefix(err.Error(), "wiretest: ") {
			t.Fatalf("err = %v, want the caller's own context.Canceled, not a transport error", err)
		}
		if got := ep.hits.Load(); got != 1 || len(clock.pauses) != 0 {
			t.Fatalf("made %d attempts and backed off %v after the caller cancelled", got, clock.pauses)
		}
		wantCounters(t, c, 1, 0)
	})
}
