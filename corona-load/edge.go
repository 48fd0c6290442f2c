package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"corona/client"
	"corona/internal/webgateway"
)

// edges are the benchmark's two real client connections: one SDK
// connection to node 0's client port and one WebSocket session on node
// 1's web gateway. Each holds the same fixed channel slice; receipts land
// in per-channel subs like the in-process subscribers'.
type edges struct {
	sdk    *client.Conn
	ws     *webgateway.WSClient
	sdkSub map[string]*sub // by channel URL
	wsSub  map[string]*sub
	wg     sync.WaitGroup
	tr     *tracer
}

// sdkNode and wsNode are the entry nodes of the two edge sessions.
const (
	sdkNode = 0
	wsNode  = 1
)

// openEdges connects both sessions and subscribes each to urls, waiting
// for every ack. paths maps each URL to the origin's channel key.
func openEdges(ctx context.Context, a addrs, urls []string, paths map[string]string, tr *tracer) (*edges, error) {
	e := &edges{sdkSub: make(map[string]*sub), wsSub: make(map[string]*sub), tr: tr}
	sdk, err := client.Dial(ctx, []string{a.client(sdkNode)}, client.Options{Handle: "edge-sdk", NotifyBuffer: 4096})
	if err != nil {
		return nil, fmt.Errorf("dialing SDK: %w", err)
	}
	e.sdk = sdk
	for _, u := range urls {
		s := &sub{name: "edge-sdk", url: u, path: paths[u], node: sdkNode, from: time.Now()}
		if err := sdk.Subscribe(ctx, u); err != nil {
			e.close()
			return nil, fmt.Errorf("SDK subscribe %s: %w", u, err)
		}
		e.sdkSub[u] = s
	}
	e.wg.Add(1)
	go e.readSDK()

	ws, err := webgateway.DialWS("ws://" + a.web(wsNode) + "/ws")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("dialing WebSocket: %w", err)
	}
	e.ws = ws
	if err := e.wsRequest(map[string]any{"type": "login", "req": 1, "handle": "edge-ws"}, 1); err != nil {
		e.close()
		return nil, err
	}
	for i, u := range urls {
		s := &sub{name: "edge-ws", url: u, path: paths[u], node: wsNode, from: time.Now()}
		req := i + 2
		if err := e.wsRequest(map[string]any{"type": "subscribe", "req": req, "url": u}, req); err != nil {
			e.close()
			return nil, err
		}
		e.wsSub[u] = s
	}
	ws.SetReadDeadline(time.Time{})
	e.wg.Add(1)
	go e.readWS()
	return e, nil
}

// wsMessage is the JSON shape of every server-to-client WebSocket message
// the benchmark reads.
type wsMessage struct {
	Type    string `json:"type"`
	Req     int    `json:"req"`
	Reason  string `json:"reason"`
	Channel string `json:"channel"`
	Version uint64 `json:"version"`
	Diff    string `json:"diff"`
}

// wsRequest sends one request and waits for its ack, skipping the hello
// and any other message in between.
func (e *edges) wsRequest(msg map[string]any, req int) error {
	if err := e.ws.WriteJSON(msg); err != nil {
		return fmt.Errorf("WebSocket %s: %w", msg["type"], err)
	}
	e.ws.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		raw, err := e.ws.ReadMessage()
		if err != nil {
			return fmt.Errorf("WebSocket %s: %w", msg["type"], err)
		}
		var m wsMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			return fmt.Errorf("WebSocket %s: %w", msg["type"], err)
		}
		switch {
		case m.Type == "ack" && m.Req == req:
			return nil
		case m.Type == "nak" && m.Req == req:
			return fmt.Errorf("WebSocket %s refused: %s", msg["type"], m.Reason)
		}
	}
}

func (e *edges) readSDK() {
	defer e.wg.Done()
	for n := range e.sdk.Notifications() {
		now := time.Now()
		if s := e.sdkSub[n.Channel]; s != nil {
			s.record(n.Version, now, n.Diff)
			e.tr.span("recv.sdk", s.path, n.Version, now, now)
		}
	}
}

func (e *edges) readWS() {
	defer e.wg.Done()
	for {
		raw, err := e.ws.ReadMessage()
		if err != nil {
			return
		}
		now := time.Now()
		var m wsMessage
		if json.Unmarshal(raw, &m) != nil || m.Type != "notify" {
			continue
		}
		if s := e.wsSub[m.Channel]; s != nil {
			s.record(m.Version, now, m.Diff)
			e.tr.span("recv.ws", s.path, m.Version, now, now)
		}
	}
}

// subs lists every edge subscription.
func (e *edges) subs() []*sub {
	var out []*sub
	for _, s := range e.sdkSub {
		out = append(out, s)
	}
	for _, s := range e.wsSub {
		out = append(out, s)
	}
	return out
}

// close ends both sessions and waits for their readers to exit.
func (e *edges) close() {
	if e.sdk != nil {
		e.sdk.Close()
	}
	if e.ws != nil {
		e.ws.Close()
	}
	e.wg.Wait()
}
