package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// clientDeadline is the client's per-request deadline, equal to rpqd's
// default handling deadline: a request that exceeds it counts as failed.
const clientDeadline = 30 * time.Second

// maxConns bounds the benchmark's connections to rpqd.
const maxConns = 2

// client talks to one rpqd over at most maxConns connections.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &client{
		base: "http://" + addr,
		tr:   tr,
		hc:   &http.Client{Transport: tr, Timeout: clientDeadline},
	}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// post sends body as JSON to path and decodes a 2xx answer into out.
func (c *client) post(path string, body []byte, out any) error {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &httpError{resp.StatusCode, strings.TrimSpace(string(data))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// sseEvent is one server-sent event.
type sseEvent struct {
	name string
	data []byte
	at   time.Time // when its last line arrived
}

// watch opens a standing query and delivers its events on the returned
// channel until ctx ends or the stream closes; the channel is closed
// then. The returned wait function blocks until the reader has exited.
func (c *client) watch(ctx context.Context, body []byte) (<-chan sseEvent, func(), error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/watch", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// No client timeout: the stream outlives any single request.
	resp, err := (&http.Client{Transport: c.tr}).Do(req)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, nil, &httpError{resp.StatusCode, strings.TrimSpace(string(data))}
	}
	// Buffered so the reader stamps arrival times without waiting on the
	// consumer; one run produces far fewer events than this.
	events := make(chan sseEvent, 4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(events)
		defer resp.Body.Close()
		br := bufio.NewReaderSize(resp.Body, 1<<20)
		var ev sseEvent
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return
			}
			line = bytes.TrimRight(line, "\r\n")
			switch {
			case len(line) == 0:
				if ev.name != "" {
					ev.at = time.Now()
					events <- ev
				}
				ev = sseEvent{}
			case bytes.HasPrefix(line, []byte("event:")):
				ev.name = strings.TrimSpace(string(line[len("event:"):]))
			case bytes.HasPrefix(line, []byte("data:")):
				ev.data = append(ev.data, bytes.TrimSpace(line[len("data:"):])...)
			}
		}
	}()
	return events, func() { <-done }, nil
}
