package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// serveMetrics registers one of each ServeConn instrument on a fresh
// registry.
func serveMetrics() ServeMetrics {
	reg := telemetry.NewRegistry()
	return ServeMetrics{
		Connections:     reg.Counter("conns", "").With(),
		ProtocolErrors:  reg.Counter("proto_errors", "").With(),
		IdleDisconnects: reg.Counter("idle", "").With(),
		Latency:         reg.Histogram("latency", "", nil).With(),
		Codec:           NewMetrics(reg),
	}
}

// startServeConn runs ServeConn on one end of a pipe and returns the other
// end plus a channel closed when ServeConn returns.
func startServeConn(idle time.Duration, m ServeMetrics, dispatch func(Envelope, *Replies) (Envelope, bool)) (net.Conn, <-chan struct{}) {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeConn(server, idle, m, dispatch)
	}()
	return client, done
}

func echoHello(req Envelope, _ *Replies) (Envelope, bool) {
	return Envelope{Type: TypeHelloAck, HelloAck: &HelloAck{ServerID: req.Hello.ClientID}}, false
}

func TestServeConnOversizedLineGetsErrorReply(t *testing.T) {
	m := serveMetrics()
	client, done := startServeConn(0, m, echoHello)
	defer client.Close()
	go func() {
		// One line just past the cap. The pipe is unbuffered, so the write
		// ends when the server stops reading: error ignored.
		_, _ = client.Write(append(bytes.Repeat([]byte("x"), MaxMessageBytes+1), '\n'))
	}()
	reply, err := NewConn(client).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError || reply.Error == nil || reply.Error.Message != "message too large" {
		t.Fatalf("reply to an oversized line: %+v", reply)
	}
	<-done
	if got := m.ProtocolErrors.Value(); got != 1 {
		t.Fatalf("protocol errors %v, want 1", got)
	}
	if got := m.Connections.Value(); got != 1 {
		t.Fatalf("connections %v, want 1", got)
	}
	if got := m.Latency.Count(); got != 0 {
		t.Fatalf("latency observed %d times for a request that was never dispatched", got)
	}
}

func TestServeConnIdleExpiry(t *testing.T) {
	m := serveMetrics()
	client, done := startServeConn(30*time.Millisecond, m, echoHello)
	defer client.Close()
	c := NewConn(client)
	// A live client is served, and each request re-arms the deadline.
	for i := 0; i < 2; i++ {
		if _, err := c.Call(Envelope{Type: TypeHello, Hello: &Hello{ClientID: "c"}}, TypeHelloAck); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("silent connection not dropped")
	}
	if got := m.IdleDisconnects.Value(); got != 1 {
		t.Fatalf("idle disconnects %v, want 1", got)
	}
	if got := m.ProtocolErrors.Value(); got != 0 {
		t.Fatalf("protocol errors %v, want 0", got)
	}
	if got := m.Latency.Count(); got != 2 {
		t.Fatalf("latency observed %d times, want 2", got)
	}
}

// TestServeConnBoundsEachWrite: a client that sends a request and never
// reads its reply is dropped once the reply has waited idle to be written,
// as a silent one is; a net.Pipe has no buffer, so the reply's write blocks
// at once.
func TestServeConnBoundsEachWrite(t *testing.T) {
	m := serveMetrics()
	client, done := startServeConn(50*time.Millisecond, m, echoHello)
	defer client.Close()
	if _, err := client.Write([]byte(`{"type":"hello","hello":{"client_id":"deaf"}}` + "\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a client that never reads its reply pins its handler")
	}
	if got := m.IdleDisconnects.Value(); got != 1 {
		t.Fatalf("idle disconnects %v, want 1", got)
	}
}

// TestServeConnRefusesBeforeDispatch: ServeConn answers a request lacking
// the payload its type needs, a hello or zone report naming no client, or a
// sample or zone report naming a network or metric the tree does not define,
// with one error reply and a close, and dispatch never sees it; a status
// request, whose payload is empty, a type ServeConn does not know and reports
// of known names are dispatched.
func TestServeConnRefusesBeforeDispatch(t *testing.T) {
	for _, tc := range []struct {
		line       string
		dispatched bool
	}{
		{`{"type":"hello"}`, false},
		{`{"type":"hello","hello":{"client_id":""}}`, false},
		{`{"type":"zone_report"}`, false},
		{`{"type":"zone_report","zone_report":{"client_id":""}}`, false},
		{`{"type":"sample_report"}`, false},
		{`{"type":"estimate_request"}`, false},
		{`{"type":"zone_list_request"}`, false},
		{`{"type":"promote"}`, false},
		{`{"type":"demote"}`, false},
		{`{"type":"task_list"}`, false},
		{`{"type":"zone_report","zone_report":{"client_id":"c","networks":["NetB","NetZ"]}}`, false},
		{`{"type":"sample_report","sample_report":{"client_id":"c","samples":[{"t":"2010-09-16T00:10:00Z","net":"NetZ","metric":"tcp_kbps","value":1}]}}`, false},
		{`{"type":"sample_report","sample_report":{"client_id":"c","samples":[{"t":"2010-09-16T00:10:00Z","net":"NetB","metric":"tcp_kbpz","value":1}]}}`, false},
		{`{"type":"sample_report","sample_report":{"client_id":"c","samples":[{"t":"2010-09-16T00:10:00Z","net":"NetB","metric":"tcp_kbps","value":1},{"t":"2010-09-16T00:10:01Z","net":"NetB","metric":"tcp_kbps","value":1e39}]}}`, false},
		{`{"type":"sample_report","sample_report":{"client_id":"c","samples":[{"t":"2010-09-16T00:10:00Z","net":"NetB","metric":"tcp_kbps","value":-1.000001e18}]}}`, false},
		{`{"type":"sample_report","sample_report":{"client_id":"c","samples":[{"t":"2010-09-16T00:10:00Z","net":"NetB","metric":"tcp_kbps","value":-1e18}]}}`, true},
		{`{"type":"zone_report","zone_report":{"client_id":"c","networks":["NetA","NetB","NetC"]}}`, true},
		{`{"type":"sample_report","sample_report":{"client_id":"c","samples":[{"t":"2010-09-16T00:10:00Z","net":"NetB","metric":"tcp_kbps","value":1}]}}`, true},
		{`{"type":"status_request"}`, true},
		{`{"type":"gossip"}`, true},
	} {
		m := serveMetrics()
		dispatched := false
		client, done := startServeConn(0, m, func(Envelope, *Replies) (Envelope, bool) {
			dispatched = true
			return ErrorReply("dispatched"), true
		})
		go func() { _, _ = client.Write([]byte(tc.line + "\n")) }()
		c := NewConn(client)
		reply, err := c.Recv()
		<-done
		if err != nil || reply.Type != TypeError || dispatched != tc.dispatched {
			t.Errorf("%s: answered %+v, %v, dispatched %v; want an error reply, dispatched %v", tc.line, reply, err, dispatched, tc.dispatched)
		}
		if _, err := c.Recv(); !errors.Is(err, io.EOF) {
			t.Errorf("%s: read after the error reply: %v, want EOF", tc.line, err)
		}
		if got := m.ProtocolErrors.Value(); got != 1 {
			t.Errorf("%s: protocol errors %v, want 1", tc.line, got)
		}
		client.Close()
	}
}

func TestServeConnFatalClosesAfterReply(t *testing.T) {
	m := serveMetrics()
	client, done := startServeConn(0, m, func(Envelope, *Replies) (Envelope, bool) {
		return ErrorReply("bad request"), true
	})
	defer client.Close()
	c := NewConn(client)
	reply, err := c.Request(Envelope{Type: TypeHello, Hello: &Hello{ClientID: "c"}})
	if err != nil {
		t.Fatalf("the fatal reply must still be delivered: %v", err)
	}
	if reply.Type != TypeError || reply.Error.Message != "bad request" {
		t.Fatalf("reply %+v", reply)
	}
	<-done
	if _, err := c.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("read after a fatal reply: %v, want EOF", err)
	}
	if got := m.ProtocolErrors.Value(); got != 1 {
		t.Fatalf("protocol errors %v, want 1", got)
	}
}

func TestCall(t *testing.T) {
	var re *ReplyError
	for _, tc := range []struct {
		name    string
		reply   Envelope
		wantErr string // "" means success
	}{
		{"wanted reply", Envelope{Type: TypeSampleAck, SampleAck: &SampleAck{Accepted: 3}}, ""},
		{"error reply", ErrorReply("replica is read-only"), "replica is read-only"},
		{"other type", Envelope{Type: TypeTaskList, TaskList: &TaskList{}}, `unexpected reply "task_list"`},
		{"wanted type, no payload", Envelope{Type: TypeSampleAck}, "sample_ack reply has no payload"},
		{"error type, no payload", Envelope{Type: TypeError}, `unexpected reply "error"`},
	} {
		client, server := pipePair()
		go func() {
			if _, err := server.Recv(); err == nil {
				_ = server.Send(tc.reply)
			}
		}()
		got, err := client.Call(Envelope{Type: TypeSampleReport, SampleReport: &SampleReport{}}, TypeSampleAck)
		switch {
		case tc.wantErr == "":
			if err != nil || got.SampleAck == nil || got.SampleAck.Accepted != 3 {
				t.Errorf("%s: got %+v, %v", tc.name, got, err)
			}
		case !errors.As(err, &re) || err.Error() != tc.wantErr:
			t.Errorf("%s: err %v, want ReplyError %q", tc.name, err, tc.wantErr)
		}
		client.Close()
		server.Close()
	}

	// A transport failure is not a ReplyError.
	client, server := pipePair()
	server.Close()
	if _, err := client.Call(Envelope{Type: TypeStatusRequest, StatusRequest: &StatusRequest{}}, TypeStatusReply); err == nil || errors.As(err, &re) {
		t.Fatalf("call on a dead connection: %v, want a transport error", err)
	}
	client.Close()
}
