// Package wire defines the client<->coordinator protocol of the WiScape
// framework (§3.4): clients say hello, periodically report their
// coarse-grained zone, receive measurement task lists, and upload measured
// samples; applications query zone estimates.
//
// Messages are newline-delimited JSON envelopes over any net.Conn. The
// format favours debuggability (every message is a greppable line) and has
// an explicit per-message size cap so a misbehaving peer cannot exhaust
// server memory.
//
// The package also holds the one serving skeleton every endpoint runs on:
// Listener (accept loop, tracked connections, Suspend/Resume/Close),
// ServeConn (the per-connection request/response loop) and Conn.Call (a
// round trip that yields the wanted reply or an error).
package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/trace"
)

// MsgType discriminates envelope payloads.
type MsgType string

// Protocol message types.
const (
	TypeHello           MsgType = "hello"
	TypeHelloAck        MsgType = "hello_ack"
	TypeZoneReport      MsgType = "zone_report"
	TypeTaskList        MsgType = "task_list"
	TypeSampleReport    MsgType = "sample_report"
	TypeSampleAck       MsgType = "sample_ack"
	TypeEstimateRequest MsgType = "estimate_request"
	TypeEstimateReply   MsgType = "estimate_reply"
	TypeZoneListRequest MsgType = "zone_list_request"
	TypeZoneListReply   MsgType = "zone_list_reply"
	TypeError           MsgType = "error"

	// Cluster-control messages: the gateway (never an agent) interrogates
	// and re-roles shard coordinators during failover.
	TypeStatusRequest MsgType = "status_request"
	TypeStatusReply   MsgType = "status_reply"
	TypePromote       MsgType = "promote"
	TypePromoteAck    MsgType = "promote_ack"
	TypeDemote        MsgType = "demote"
	TypeDemoteAck     MsgType = "demote_ack"
)

// Hello introduces a client. DeviceClass groups hardware with comparable
// radios (§3.3: measurements compose within a class; phones and laptop
// modems must not be mixed without normalization).
type Hello struct {
	ClientID    string `json:"client_id"`
	DeviceClass string `json:"device_class"`
}

// HelloAck acknowledges registration.
type HelloAck struct {
	ServerID        string  `json:"server_id"`
	TaskIntervalSec float64 `json:"task_interval_sec"`
}

// ZoneReport is the client's periodic coarse position report (real cellular
// systems already know the serving cell; WiScape piggybacks on that).
type ZoneReport struct {
	ClientID string            `json:"client_id"`
	Zone     geo.ZoneID        `json:"zone"`
	Loc      geo.Point         `json:"loc"`
	SpeedKmh float64           `json:"speed_kmh"`
	At       time.Time         `json:"at"`
	Networks []radio.NetworkID `json:"networks"`
}

// Task instructs a client to run one measurement.
type Task struct {
	Network      radio.NetworkID `json:"network"`
	Metric       trace.Metric    `json:"metric"`
	UDPPackets   int             `json:"udp_packets,omitempty"`
	UDPSizeBytes int             `json:"udp_size_bytes,omitempty"`
	TCPBytes     int             `json:"tcp_bytes,omitempty"`
}

// TaskList carries the coordinator's measurement assignments for this
// round. Empty means "stay quiet" — the mechanism that keeps client
// overhead low.
type TaskList struct {
	Tasks []Task `json:"tasks"`
}

// SampleReport uploads measured samples with their precise GPS fixes.
type SampleReport struct {
	ClientID string         `json:"client_id"`
	Samples  []trace.Sample `json:"samples"`
}

// SampleAck confirms ingestion.
type SampleAck struct {
	Accepted int `json:"accepted"`
}

// EstimateRequest asks for a zone's published record. WithSketch also asks
// for the window sketch behind it: a mergeable summary travels only to a
// peer that will merge or inspect it, so the gateway sets it toward its
// shards when it may have to merge and agents leave it unset.
type EstimateRequest struct {
	Zone       geo.ZoneID      `json:"zone"`
	Network    radio.NetworkID `json:"network"`
	Metric     trace.Metric    `json:"metric"`
	WithSketch bool            `json:"with_sketch,omitempty"`
}

// EstimateReply returns the record, if any. Sketch is set only when the
// request had WithSketch: the zone's serialized trailing-window sketch
// (internal/sketch binary form, base64 in JSON). The cluster gateway merges
// these digests across shards instead of averaging point estimates, so
// fan-out queries preserve the full distribution.
type EstimateReply struct {
	Found  bool        `json:"found"`
	Record core.Record `json:"record"`
	Sketch []byte      `json:"sketch,omitempty"`
}

// ZoneListRequest asks for every published record of one network/metric —
// the bulk query behind operator dashboards.
type ZoneListRequest struct {
	Network radio.NetworkID `json:"network"`
	Metric  trace.Metric    `json:"metric"`
}

// ZoneListReply returns the matching records in deterministic zone order.
type ZoneListReply struct {
	Records []core.Record `json:"records"`
}

// ErrorMsg reports a protocol-level problem.
type ErrorMsg struct {
	Message string `json:"message"`
}

// Replication roles a coordinator can hold.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
)

// StatusRequest asks a coordinator for its replication role and progress.
// The gateway polls this to pick the freshest replica at promotion time and
// to detect stale primaries that must be demoted.
type StatusRequest struct{}

// ReplicaState is one attached replica as its primary sees it.
type ReplicaState struct {
	ID        string `json:"id"`
	AckedLSN  uint64 `json:"acked_lsn"`
	Connected bool   `json:"connected"`
}

// StatusReply reports a coordinator's replication position. A primary
// fills LastLSN, ReplAddr and Replicas; a replica fills AppliedLSN,
// PrimaryLSN and LagRecords.
type StatusReply struct {
	ServerID   string         `json:"server_id"`
	Role       string         `json:"role"`
	Epoch      uint64         `json:"epoch"`
	LastLSN    uint64         `json:"last_lsn"`
	AppliedLSN uint64         `json:"applied_lsn,omitempty"`
	PrimaryLSN uint64         `json:"primary_lsn,omitempty"`
	LagRecords uint64         `json:"lag_records"`
	ReplAddr   string         `json:"repl_addr,omitempty"`
	Replicas   []ReplicaState `json:"replicas,omitempty"`
}

// Promote orders a replica to become primary at the given routing epoch.
// The coordinator stops tailing, opens its replication listener, and starts
// accepting writes.
type Promote struct {
	Epoch uint64 `json:"epoch"`
}

// PromoteAck confirms the role switch, reporting the new primary's
// replication listener address (for demoted peers to resync from) and its
// last LSN at promotion.
type PromoteAck struct {
	ServerID string `json:"server_id"`
	Epoch    uint64 `json:"epoch"`
	LastLSN  uint64 `json:"last_lsn"`
	ReplAddr string `json:"repl_addr,omitempty"`
}

// Demote orders a (possibly stale) primary to stand down and resync as a
// replica of PrimaryReplAddr, discarding divergent local state via a fresh
// snapshot bootstrap.
type Demote struct {
	Epoch           uint64 `json:"epoch"`
	PrimaryReplAddr string `json:"primary_repl_addr"`
}

// DemoteAck confirms the stand-down.
type DemoteAck struct {
	ServerID string `json:"server_id"`
	Epoch    uint64 `json:"epoch"`
}

// Via marks an envelope as forwarded by an intermediary tier (the cluster
// gateway), so shard coordinators can tell relayed traffic from direct
// agent connections in logs and telemetry. Agents never set it.
type Via struct {
	// Gateway identifies the forwarding gateway instance.
	Gateway string `json:"gateway"`
	// Shard is the route the gateway chose (the shard's configured name).
	Shard string `json:"shard,omitempty"`
}

// Envelope is the wire frame: exactly one payload field is set, selected by
// Type.
type Envelope struct {
	Type MsgType `json:"type"`

	// Via is set on envelopes relayed by a gateway; nil on direct traffic.
	Via *Via `json:"via,omitempty"`

	Hello           *Hello           `json:"hello,omitempty"`
	HelloAck        *HelloAck        `json:"hello_ack,omitempty"`
	ZoneReport      *ZoneReport      `json:"zone_report,omitempty"`
	TaskList        *TaskList        `json:"task_list,omitempty"`
	SampleReport    *SampleReport    `json:"sample_report,omitempty"`
	SampleAck       *SampleAck       `json:"sample_ack,omitempty"`
	EstimateRequest *EstimateRequest `json:"estimate_request,omitempty"`
	EstimateReply   *EstimateReply   `json:"estimate_reply,omitempty"`
	ZoneListRequest *ZoneListRequest `json:"zone_list_request,omitempty"`
	ZoneListReply   *ZoneListReply   `json:"zone_list_reply,omitempty"`
	Error           *ErrorMsg        `json:"error,omitempty"`

	StatusRequest *StatusRequest `json:"status_request,omitempty"`
	StatusReply   *StatusReply   `json:"status_reply,omitempty"`
	Promote       *Promote       `json:"promote,omitempty"`
	PromoteAck    *PromoteAck    `json:"promote_ack,omitempty"`
	Demote        *Demote        `json:"demote,omitempty"`
	DemoteAck     *DemoteAck     `json:"demote_ack,omitempty"`
}

// MaxMessageBytes caps a single wire message. Sample reports dominate; at
// ~300 bytes per encoded sample this allows reports of ~30k samples.
const MaxMessageBytes = 8 << 20

// ErrMessageTooLarge is returned when a peer sends an oversized message.
var ErrMessageTooLarge = errors.New("wire: message exceeds size limit")

// Conn frames envelopes over a net.Conn. Concurrent Sends and concurrent
// Recvs are each safe only from one goroutine (the usual net.Conn rule).
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	m  *Metrics
}

// connBufBytes sizes a Conn's reader and writer. A line shorter than this is
// decoded in place (see readLineLimited); a longer one is gathered in a
// pooled frame buffer.
const connBufBytes = 64 << 10

// NewConn wraps a transport connection.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc: nc,
		br: bufio.NewReaderSize(nc, connBufBytes),
		bw: bufio.NewWriterSize(nc, connBufBytes),
	}
}

// Instrument attaches codec metrics (shared across any number of Conns)
// and returns c. A nil m leaves the connection uninstrumented.
func (c *Conn) Instrument(m *Metrics) *Conn {
	c.m = m
	return c
}

// frameBufs holds the buffers Send encodes into and Recv gathers a line
// longer than its reader into. They are pooled, not kept per Conn, so an
// idle connection pins no frame buffer, and the pool lets go of what it
// holds within two garbage collections.
var frameBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledFrameBytes bounds the buffers frameBufs keeps: a zone list of a
// few thousand records goes back to the pool, one huge report does not.
const maxPooledFrameBytes = 1 << 20

func putFrameBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledFrameBytes {
		buf.Reset()
		frameBufs.Put(buf)
	}
}

// Send writes one envelope. The frame is encoded whole before any of it
// reaches the transport, so an oversized one is refused with nothing sent.
func (c *Conn) Send(e Envelope) error {
	buf := frameBufs.Get().(*bytes.Buffer)
	defer putFrameBuf(buf)
	buf.Grow(frameSizeHint(&e))
	if frame, ok := appendHandSpelled(buf.AvailableBuffer(), &e); ok {
		buf.Write(frame) // in place when the buffer had the room
	} else if err := encodeJSON(buf, e); err != nil {
		return fmt.Errorf("wire: encoding %s: %w", e.Type, err)
	}
	if buf.Len()-1 > MaxMessageBytes {
		c.m.oversized()
		return ErrMessageTooLarge
	}
	if _, err := c.bw.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("wire: writing %s: %w", e.Type, err)
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	c.m.encoded(buf.Len())
	return nil
}

// encodeJSON writes exactly json.Marshal's bytes plus the frame's '\n'. The
// envelope escapes into the encoder here, in a copy, so that a frame Send
// spells itself does not pay for one on the heap.
func encodeJSON(buf *bytes.Buffer, e Envelope) error {
	return json.NewEncoder(buf).Encode(&e)
}

// Recv reads the next envelope, enforcing the size cap.
func (c *Conn) Recv() (Envelope, error) {
	line, spill, err := readLineLimited(c.br, MaxMessageBytes)
	if err != nil {
		if errors.Is(err, ErrMessageTooLarge) {
			c.m.oversized()
		}
		return Envelope{}, err
	}
	frameBytes := len(line) + 1
	e, err := c.decode(line)
	if spill != nil {
		putFrameBuf(spill) // line is spill's; the envelope holds none of it
	}
	if err == nil {
		c.m.decoded(frameBytes)
	}
	return e, err
}

// decode decodes one line. The line may alias the read buffer or a pooled
// one. The envelope must not: the canonical parser copies every string it
// keeps (or shares one it already copied), encoding/json copies every string
// and []byte it decodes, and no envelope type has a custom unmarshaler or a
// json.RawMessage field; one added later must copy what it keeps.
func (c *Conn) decode(line []byte) (Envelope, error) {
	if e, ok := parseHandSpelled(line); ok {
		return e, nil
	}
	var e Envelope // escapes into the decoder: declared past the path that does not need it
	if err := json.Unmarshal(line, &e); err != nil {
		return e, fmt.Errorf("wire: decoding message: %w", err)
	}
	if e.Type == "" {
		return e, errors.New("wire: message missing type")
	}
	if handSpelled(&e) {
		c.m.decodeFallback(e.Type)
	}
	return e, nil
}

// Three frames the codec spells by hand, because they are nearly every byte
// the system moves: a sample report (the ingest path), and a zone-list reply
// and an estimate reply without a sketch (the read path). Both directions go
// through trace's sample codec and core's record codec and are held to
// encoding/json, which still does everything else: appendHandSpelled writes
// exactly what the encoder would and leaves what it would refuse to it, and
// parseHandSpelled reads only a frame in that canonical spelling, to what
// json.Unmarshal would have made of it, and declines any other, which
// json.Unmarshal then decodes as it always has (TestSendBytesMatchJSON,
// TestRecvMatchesJSON, TestReplyRecvMatchesJSON, FuzzSampleDecodeMatchesJSON,
// FuzzReplyDecodeMatchesJSON).
//
//	frame   = `{"type":"` T `",` [ via `,` ] `"` T `":` payload `}`
//	via     = `"via":{"gateway":` string [ `,"shard":` nonempty-string ] `}`
//	payload = `{"client_id":` string `,"samples":[` sample { `,` sample } `]}`   T = sample_report
//	        | `{"records":` ( `null` | `[]` | `[` record { `,` record } `]` ) `}` T = zone_list_reply
//	        | `{"found":` ( `true` | `false` ) `,"record":` record `}`         T = estimate_reply

// handSpelledTypes are the frame types handSpelled can hold for.
var handSpelledTypes = [...]MsgType{TypeSampleReport, TypeZoneListReply, TypeEstimateReply}

// handSpelled reports whether e is a frame Send spells itself: a sample
// report with a sample slice, a zone-list reply, or an estimate reply without
// a sketch, each with nothing else set but Via. Recv counts a decoded one
// that reached encoding/json as a fallback.
func handSpelled(e *Envelope) bool {
	only := Envelope{Type: e.Type, Via: e.Via}
	switch e.Type {
	case TypeSampleReport:
		only.SampleReport = e.SampleReport
		return *e == only && e.SampleReport != nil && e.SampleReport.Samples != nil
	case TypeZoneListReply:
		only.ZoneListReply = e.ZoneListReply
		return *e == only && e.ZoneListReply != nil
	case TypeEstimateReply:
		only.EstimateReply = e.EstimateReply
		return *e == only && e.EstimateReply != nil && len(e.EstimateReply.Sketch) == 0
	}
	return false
}

// frameSizeHint is about what e's frame takes: 256 bytes for each sample or
// record it carries, and as much again for the rest. Send reserves it before
// encoding, so a long frame does not regrow its buffer on the way.
func frameSizeHint(e *Envelope) int {
	items := 1
	switch {
	case e.SampleReport != nil:
		items += len(e.SampleReport.Samples)
	case e.ZoneListReply != nil:
		items += len(e.ZoneListReply.Records)
	}
	return 256 * items
}

// appendHandSpelled appends e's frame, '\n' included, to b if e is one Send
// spells by hand (handSpelled) and holds no value encoding/json refuses.
func appendHandSpelled(b []byte, e *Envelope) ([]byte, bool) {
	if !handSpelled(e) {
		return b, false
	}
	b = append(b, `{"type":"`...)
	b = append(b, e.Type...)
	b = append(b, `",`...)
	if e.Via != nil {
		b = append(b, `"via":{"gateway":`...)
		b = trace.AppendStringJSON(b, e.Via.Gateway)
		if e.Via.Shard != "" {
			b = append(b, `,"shard":`...)
			b = trace.AppendStringJSON(b, e.Via.Shard)
		}
		b = append(b, "},"...)
	}
	b = append(b, '"')
	b = append(b, e.Type...)
	b = append(b, `":`...)
	var err error
	switch e.Type {
	case TypeSampleReport:
		r := e.SampleReport
		b = append(b, `{"client_id":`...)
		b = trace.AppendStringJSON(b, r.ClientID)
		b = append(b, `,"samples":[`...)
		for i := range r.Samples {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = trace.AppendSampleJSON(b, r.Samples[i]); err != nil {
				return b, false // encoding/json refuses it too, and says why
			}
		}
		b = append(b, ']')
	case TypeZoneListReply:
		b = append(b, `{"records":`...)
		if b, err = core.AppendRecordsJSON(b, e.ZoneListReply.Records); err != nil {
			return b, false
		}
	case TypeEstimateReply:
		b = append(b, `{"found":`...)
		b = strconv.AppendBool(b, e.EstimateReply.Found)
		b = append(b, `,"record":`...)
		if b, err = core.AppendRecordJSON(b, e.EstimateReply.Record); err != nil {
			return b, false
		}
	}
	return append(b, "}}\n"...), true
}

// parseHandSpelled decodes line if it is a hand-spelled frame in canonical
// form (a sample report with at least one sample).
func parseHandSpelled(line []byte) (Envelope, bool) {
	c := trace.Canon{B: line}
	c.Lit(`{"type":"`)
	var e Envelope
	for _, t := range handSpelledTypes {
		if c.TryLit(string(t)) {
			e.Type = t
			break
		}
	}
	c.Lit(`",`)
	if c.TryLit(`"via":{"gateway":`) {
		e.Via = &Via{Gateway: c.String("")}
		if c.TryLit(`,"shard":`) {
			if e.Via.Shard = c.String(""); e.Via.Shard == "" {
				return Envelope{}, false // omitempty never writes it
			}
		}
		c.Lit("},")
	}
	c.Lit(`"`)
	c.Lit(string(e.Type))
	c.Lit(`":`)
	if c.Declined || e.Type == "" {
		return Envelope{}, false
	}
	switch e.Type {
	case TypeSampleReport:
		c.Lit(`{"client_id":`)
		r := &SampleReport{ClientID: c.String("")}
		c.Lit(`,"samples":`)
		r.Samples = trace.ParseSamplesJSON(&c, r.ClientID)
		e.SampleReport = r
	case TypeZoneListReply:
		c.Lit(`{"records":`)
		e.ZoneListReply = &ZoneListReply{Records: core.ParseRecordsJSON(&c)}
	case TypeEstimateReply:
		r := &EstimateReply{}
		c.Lit(`{"found":`)
		if r.Found = c.TryLit("true"); !r.Found {
			c.Lit("false")
		}
		c.Lit(`,"record":`)
		core.ParseRecordJSON(&c, &r.Record, &core.Record{})
		e.EstimateReply = r
	}
	c.Lit("}}")
	if c.Declined || len(c.B) != 0 {
		return Envelope{}, false
	}
	return e, true
}

// readLineLimited reads one \n-terminated line of at most limit bytes. A
// line that fits br's buffer comes back as a view into it, valid until the
// next read from br, and no buffer. A longer one is gathered chunk by chunk
// into a buffer from frameBufs, which comes back with it for the caller to
// put back once it is done with the line.
func readLineLimited(br *bufio.Reader, limit int) ([]byte, *bytes.Buffer, error) {
	var spill *bytes.Buffer
	for {
		chunk, err := br.ReadSlice('\n')
		if spill == nil && err == nil && len(chunk) <= limit {
			return chunk[:len(chunk)-1], nil, nil
		}
		if spill == nil {
			spill = frameBufs.Get().(*bytes.Buffer)
		}
		spill.Write(chunk)
		switch {
		case spill.Len() > limit:
			err = ErrMessageTooLarge
		case err == nil:
			return spill.Bytes()[:spill.Len()-1], spill, nil
		case err == bufio.ErrBufferFull:
			continue
		}
		putFrameBuf(spill)
		return nil, nil, err
	}
}

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.nc.Close() }

// SetDeadline bounds both reads and writes.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// Request sends one envelope and waits for the reply (simple synchronous
// RPC pattern; the protocol is strictly request/response per message).
func (c *Conn) Request(e Envelope) (Envelope, error) {
	if err := c.Send(e); err != nil {
		return Envelope{}, err
	}
	return c.Recv()
}

// ReplyError is Call's failure when the round trip worked but the peer did
// not answer with the wanted payload: an error envelope (Message is its
// text), another reply type, or the wanted type with nothing in it. Tell it
// from a transport failure with errors.As: the peer is alive and in step.
type ReplyError struct{ Message string }

func (e *ReplyError) Error() string { return e.Message }

// Call is Request for a caller that knows the reply type it wants: the
// envelope it returns has that Type and a non-nil payload for it, safe to
// dereference unchecked. Any other answer comes back as a *ReplyError.
func (c *Conn) Call(req Envelope, want MsgType) (Envelope, error) {
	reply, err := c.Request(req)
	switch {
	case err != nil:
		return Envelope{}, err
	case reply.Type == want && reply.replyPayloadSet():
		return reply, nil
	case reply.Type == TypeError && reply.Error != nil:
		return Envelope{}, &ReplyError{Message: reply.Error.Message}
	case reply.Type == want:
		return Envelope{}, &ReplyError{Message: fmt.Sprintf("%s reply has no payload", want)}
	default:
		return Envelope{}, &ReplyError{Message: fmt.Sprintf("unexpected reply %q", reply.Type)}
	}
}

// replyPayloadSet reports whether the payload field e.Type selects is set,
// for the reply types a Call can want.
func (e *Envelope) replyPayloadSet() bool {
	switch e.Type {
	case TypeHelloAck:
		return e.HelloAck != nil
	case TypeTaskList:
		return e.TaskList != nil
	case TypeSampleAck:
		return e.SampleAck != nil
	case TypeEstimateReply:
		return e.EstimateReply != nil
	case TypeZoneListReply:
		return e.ZoneListReply != nil
	case TypeStatusReply:
		return e.StatusReply != nil
	case TypePromoteAck:
		return e.PromoteAck != nil
	case TypeDemoteAck:
		return e.DemoteAck != nil
	}
	return false
}
