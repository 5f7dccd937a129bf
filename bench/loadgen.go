package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// arrivals draws an open-loop Poisson schedule from seed and stream: the
// offsets, from the start of the step, at which requests fall due, at rate
// per second, over d.
func arrivals(seed, stream uint64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x61727269+stream)) // streams of their own, apart from the request order
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// loadStep sends one request per due time to url, open loop: a request is
// sent when it falls due, or as soon as one of conns senders is free, and
// it is timed from when it was due. So a stall delays every request queued
// behind it, and the delay counts in their latency.
type loadStep struct {
	url   string
	due   []time.Duration
	body  func(i int) []byte
	check func(i int, status int, body []byte) error
	conns int
	tr    *tracer
}

// loadResult is what a step observed. Every request sent is ok or failed.
type loadResult struct {
	sent, ok, failed int
	latency          []time.Duration // per request, in due order: due → response read
	late             []time.Duration // per request, in due order: due → sent, how far behind the generator ran
	firstErr         error
}

func (s loadStep) run(ctx context.Context) loadResult {
	transport := &http.Transport{MaxConnsPerHost: s.conns, MaxIdleConnsPerHost: s.conns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	latency, late := make([]time.Duration, len(s.due)), make([]time.Duration, len(s.due))
	results := make([]loadResult, s.conns) // each sender counts its own requests
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func(res *loadResult) {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C // fired and drained, so every Reset below starts clean
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.due) {
					return
				}
				due := start.Add(s.due[i])
				if wait := time.Until(due); wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					}
				}
				late[i] = time.Since(due)
				latency[i] = s.send(client, i, due, res)
			}
		}(&results[c])
	}
	wg.Wait()

	out := loadResult{latency: latency, late: late}
	for _, r := range results {
		out.sent += r.sent
		out.ok += r.ok
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	out.latency, out.late = out.latency[:out.sent], out.late[:out.sent] // senders take requests in due order
	return out
}

// send issues request i, due at due, counts the outcome into res and
// returns the request's latency from its due time.
func (s loadStep) send(client *http.Client, i int, due time.Time, res *loadResult) time.Duration {
	root := s.tr.rootAt("suggest", due)
	sp := s.tr.child(root.ref(), "gen.send")
	err := s.post(client, i, sp.ref())
	sp.end()
	latency := root.end()
	res.sent++
	if err != nil {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("request %d: %w", i, err)
		}
		return latency
	}
	res.ok++
	return latency
}

func (s loadStep) post(client *http.Client, i int, parent ref) error {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(s.body(i)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if s.tr != nil {
		req.Header.Set(parentHeader, parent.header())
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return s.check(i, resp.StatusCode, body)
}
