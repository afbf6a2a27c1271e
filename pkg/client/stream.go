package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/api"
)

// EventStream is one open GET /v1/jobs/{id}/events connection. Read
// events with Next until an error: io.EOF means the server closed the
// stream cleanly (after the terminal event, or because the job was
// evicted). Always Close the stream.
type EventStream struct {
	body    io.ReadCloser
	scanner *bufio.Scanner
	lastSeq int
	bootID  string
}

// JobEvents opens the job's Server-Sent-Events stream, replaying
// history after sequence number `after` (0 = from the beginning) and
// then following live events until the job reaches a terminal state.
func (c *Client) JobEvents(ctx context.Context, jobID string, after int) (*EventStream, error) {
	path := "/v1/jobs/" + url.PathEscape(jobID) + "/events"
	if after > 0 {
		path += "?after=" + strconv.Itoa(after)
	}
	body, hdr, err := c.downloadHeader(ctx, path)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	return &EventStream{body: body, scanner: sc, lastSeq: after, bootID: hdr.Get("X-Glove-Boot-ID")}, nil
}

// Next blocks for the next event. io.EOF reports a cleanly closed
// stream; any other error is a broken connection — reconnect with
// JobEvents(ctx, id, s.LastSeq()) to resume without gaps.
func (s *EventStream) Next() (JobEvent, error) {
	var data string
	var hasData bool
	for s.scanner.Scan() {
		line := s.scanner.Text()
		switch {
		case line == "":
			if !hasData {
				continue // stray separator / heartbeat boundary
			}
			var e JobEvent
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				return JobEvent{}, fmt.Errorf("client: bad event payload: %w", err)
			}
			s.lastSeq = e.Seq
			return e, nil
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "data: "):
			data, hasData = strings.TrimPrefix(line, "data: "), true
		default: // id:/event: fields duplicate the payload; ignore
		}
	}
	if err := s.scanner.Err(); err != nil {
		return JobEvent{}, err
	}
	return JobEvent{}, io.EOF
}

// LastSeq is the sequence number of the last event received — the
// resume cursor for a reconnect.
func (s *EventStream) LastSeq() int { return s.lastSeq }

// BootID identifies the server boot this stream is attached to (the
// X-Glove-Boot-ID response header; empty against servers that predate
// it). A different boot id on reconnect means the daemon restarted and
// recovered its state: event sequence numbers restarted with it, so a
// cursor from the previous boot must not be used to resume — reconnect
// with after=0 for a fresh replay instead.
func (s *EventStream) BootID() string { return s.bootID }

// Close releases the connection.
func (s *EventStream) Close() error { return s.body.Close() }

// WaitJob blocks until the job reaches a terminal state and returns
// its final status, following the event stream (with automatic
// reconnects) and falling back to status polling when streaming is
// unavailable.
func (c *Client) WaitJob(ctx context.Context, jobID string) (JobStatus, error) {
	return c.WatchJob(ctx, jobID, nil)
}

// WatchJob is WaitJob with a callback invoked for every observed event
// (state transitions, coalesced progress, window commits). The stream
// replays from the beginning, so the callback sees the whole lifecycle
// even when the job finished before the watch attached. The callback
// runs on the caller's goroutine; a reconnect replays nothing the
// callback has already seen — unless the daemon itself restarted in
// between (detected via X-Glove-Boot-ID), in which case the recovered
// event log is replayed from scratch and the callback may observe
// events again, marked by the sequence numbers restarting at 1.
func (c *Client) WatchJob(ctx context.Context, jobID string, callback func(JobEvent)) (JobStatus, error) {
	after := 0
	bootID := ""
	for {
		stream, err := c.JobEvents(ctx, jobID, after)
		if err != nil {
			if ctx.Err() != nil {
				return JobStatus{}, ctx.Err()
			}
			switch ErrorCode(err) {
			case api.CodeNotFound, api.CodeMethodNotAllowed:
				// A server without the events route: poll instead.
				return c.pollJob(ctx, jobID)
			case "":
				// Transport failure beyond the retry budget; polling may
				// still work (and will surface a dead server promptly).
				return c.pollJob(ctx, jobID)
			default:
				return JobStatus{}, err
			}
		}
		if id := stream.BootID(); id != "" {
			if bootID != "" && id != bootID && after > 0 {
				// The daemon restarted between connections: its recovered
				// event log numbers from 1 again, so the request just made
				// resumed at a cursor from a boot that no longer exists and
				// may have skipped the entire recovered history. Drop the
				// stale cursor and replay fresh.
				stream.Close()
				after = 0
				bootID = id
				continue
			}
			bootID = id
		}
		terminal := false
		for {
			ev, nerr := stream.Next()
			if nerr != nil {
				break // clean EOF or broken pipe: re-check status below
			}
			after = ev.Seq
			if callback != nil {
				callback(ev)
			}
			if ev.Terminal() {
				terminal = true
				break
			}
		}
		stream.Close()
		if terminal {
			return c.GetJob(ctx, jobID)
		}
		// The stream ended without a terminal event (broken connection,
		// or the job was evicted mid-stream): check the status, then
		// resume from the cursor.
		st, err := c.GetJob(ctx, jobID)
		if err != nil {
			return JobStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if !c.sleep(ctx, 0, "") {
			return JobStatus{}, ctx.Err()
		}
	}
}

// pollJob is the fallback waiter: status polls on the client's
// configured backoff schedule (WithBackoff tunes it).
func (c *Client) pollJob(ctx context.Context, jobID string) (JobStatus, error) {
	for attempt := 0; ; attempt++ {
		st, err := c.GetJob(ctx, jobID)
		if err != nil {
			return JobStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if !c.sleep(ctx, attempt, "") {
			return JobStatus{}, ctx.Err()
		}
	}
}
