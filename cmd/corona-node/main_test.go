package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"corona/internal/clientproto"
	"corona/internal/im"
)

// fakeSub records subscription calls; failing ones must surface as ERR
// lines instead of vanishing into fire-and-forget sends.
type fakeSub struct {
	mu           sync.Mutex
	subs, unsubs []string
	fail         bool
}

func (f *fakeSub) Subscribe(client, url string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return fmt.Errorf("overlay unreachable")
	}
	f.subs = append(f.subs, client+" "+url)
	return nil
}

func (f *fakeSub) Unsubscribe(client, url string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.unsubs = append(f.unsubs, client+" "+url)
	return nil
}

func (f *fakeSub) RefreshLeases(string, []string) error { return nil }

func (f *fakeSub) Attach(string, func(im.Notification)) func() { return func() {} }

func (f *fakeSub) Info() clientproto.ServerInfo { return clientproto.ServerInfo{} }

// runIMSession sends lines to a line-protocol server over TCP, one reply
// line per command, and returns the replies once the server is closed.
func runIMSession(t *testing.T, node *fakeSub, lines []string) []string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := clientproto.ServeLine(l, node, clientproto.NewSessionTable(), nil)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var replies []string
	sc := bufio.NewScanner(conn)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	for _, l := range lines {
		if _, err := fmt.Fprintln(conn, l); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("no reply to %q: %v", l, sc.Err())
		}
		replies = append(replies, sc.Text())
	}
	return replies
}

func TestServeIMAcksSubscribeCommands(t *testing.T) {
	node := &fakeSub{}
	replies := runIMSession(t, node, []string{
		"LOGIN alice",
		"SUBSCRIBE http://x/f.xml",
		"UNSUBSCRIBE http://x/f.xml",
		"QUIT",
	})
	want := []string{"OK logged in as alice", "OK subscribed http://x/f.xml", "OK unsubscribed http://x/f.xml", "OK bye"}
	for i, w := range want {
		if replies[i] != w {
			t.Fatalf("reply[%d] = %q, want %q", i, replies[i], w)
		}
	}
	if len(node.subs) != 1 || node.subs[0] != "alice http://x/f.xml" {
		t.Fatalf("node subs = %v", node.subs)
	}
	if len(node.unsubs) != 1 {
		t.Fatalf("node unsubs = %v", node.unsubs)
	}
}

func TestServeIMErrsFailedSubscribe(t *testing.T) {
	node := &fakeSub{fail: true}
	replies := runIMSession(t, node, []string{
		"LOGIN bob",
		"SUBSCRIBE http://x/f.xml",
	})
	if !strings.HasPrefix(replies[1], "ERR") || !strings.Contains(replies[1], "overlay unreachable") {
		t.Fatalf("failed subscribe reply = %q, want ERR with the node error", replies[1])
	}
}

func TestServeIMRejectsCommandsBeforeLogin(t *testing.T) {
	node := &fakeSub{}
	replies := runIMSession(t, node, []string{"SUBSCRIBE http://x/f.xml"})
	if !strings.HasPrefix(replies[0], "ERR") {
		t.Fatalf("pre-login subscribe reply = %q, want ERR", replies[0])
	}
	if len(node.subs) != 0 {
		t.Fatalf("pre-login subscribe reached the node: %v", node.subs)
	}
}
