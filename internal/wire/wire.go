// Package wire defines the client<->coordinator protocol of the WiScape
// framework (§3.4): clients say hello, periodically report their
// coarse-grained zone, receive measurement task lists, and upload measured
// samples; applications query zone estimates.
//
// Messages are newline-delimited envelopes over any net.Conn, one line
// each, with an explicit per-line size cap so a misbehaving peer cannot
// exhaust server memory. Every envelope is a JSON line, which favours
// debuggability (every message is a greppable line, typed by hand in a
// drill), except the one that carries nearly every byte a client pays for:
// a sample report goes as one binary line whenever that form carries it
// exactly, and JSON stays its specification and a spelling Recv still reads.
// A line's first byte says which it is.
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
	"math"
	"net"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

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
	ClientID string `json:"client_id"`
	// Zone is read by no server: a coordinator files the report by Loc, on
	// its own grid, and ignores it. Agents leave it at zero. The codecs
	// still spell it, so no frame changes; the field is deleted with
	// ROADMAP item 1(b), after item 2's benchmark re-base.
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
	ClientID string  `json:"client_id"`
	Samples  Samples `json:"samples"`
}

// Samples are a report's samples. JSON decodes them as it would a
// []trace.Sample, once it has counted them: more than maxReportSamples is
// refused with ErrMessageTooLarge before a sample is allocated.
type Samples []trace.Sample

// UnmarshalJSON counts the commas between the array's elements, decoding
// none of them: b is valid JSON, which encoding/json checks before it calls.
func (s *Samples) UnmarshalJSON(b []byte) error {
	commas, depth, inString := 0, 0, false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case inString && c == '\\':
			i++
		case inString:
			inString = c != '"'
		case c == '"':
			inString = true
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ',' && depth == 1:
			commas++
		}
	}
	if commas >= maxReportSamples {
		return ErrMessageTooLarge
	}
	return json.Unmarshal(b, (*[]trace.Sample)(s))
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

// MaxMessageBytes caps a single wire line, its '\n' not counted. Sample
// reports dominate, and the cap alone does not bound what one costs to
// decode: `{}` is a 2-byte JSON sample. So whatever its form, a report holds
// at most maxReportSamples samples too (the benchmark's take about 200 bytes
// each as JSON and 11 as binary).
const MaxMessageBytes = 8 << 20

// ErrMessageTooLarge is returned when a peer sends an oversized message.
var ErrMessageTooLarge = errors.New("wire: message exceeds size limit")

// Conn frames envelopes over a net.Conn. Concurrent Sends and concurrent
// Recvs are each safe only from one goroutine (the usual net.Conn rule).
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	m  Metrics // the zero bundle, which counts nothing, until Instrument
}

// connBufBytes sizes a Conn's reader and writer. A line shorter than this is
// decoded in place (see ReadLine); a longer one is gathered in a
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
	if m != nil {
		c.m = *m
	}
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
	if e.SampleReport != nil && len(e.SampleReport.Samples) > maxReportSamples {
		c.m.oversizedRejects.Inc()
		return ErrMessageTooLarge
	}
	buf := frameBufs.Get().(*bytes.Buffer)
	defer putFrameBuf(buf)
	buf.Grow(frameSizeHint(&e))
	if frame, ok := appendBinaryReport(buf.AvailableBuffer(), &e); ok {
		buf.Write(frame) // in place when the buffer had the room
	} else if frame, ok := appendHandSpelled(buf.AvailableBuffer(), &e); ok {
		buf.Write(frame)
	} else if err := encodeJSON(buf, e); err != nil {
		return fmt.Errorf("wire: encoding %s: %w", e.Type, err)
	}
	if buf.Len()-1 > MaxMessageBytes { // the line, as Recv measures it: without its '\n'
		c.m.oversizedRejects.Inc()
		return ErrMessageTooLarge
	}
	if _, err := c.bw.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("wire: writing %s: %w", e.Type, err)
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	c.m.messagesEncoded.Inc()
	c.m.bytesEncoded.Add(float64(buf.Len()))
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
	line, spill, err := ReadLine(c.br, MaxMessageBytes)
	if err != nil {
		if errors.Is(err, ErrMessageTooLarge) {
			c.m.oversizedRejects.Inc()
		}
		return Envelope{}, err
	}
	frameBytes := len(line)
	e, err := c.decode(line[:len(line)-1])
	if spill != nil {
		putFrameBuf(spill) // line is spill's; the envelope holds none of it
	}
	switch {
	case err == nil:
		c.m.messagesDecoded.Inc()
		c.m.bytesDecoded.Add(float64(frameBytes))
	case errors.Is(err, ErrMessageTooLarge):
		c.m.oversizedRejects.Inc()
	}
	return e, err
}

// decode decodes one line, binary or JSON as its first byte says. The line
// may alias the read buffer or a pooled one. The envelope must not: the
// binary and the canonical parsers copy every string they keep (or share one
// they already copied), encoding/json copies every string and []byte it
// decodes (Samples, the one custom unmarshaler, hands it its bytes), and no
// envelope type has a json.RawMessage field; one added later must copy.
func (c *Conn) decode(line []byte) (Envelope, error) {
	if len(line) > 0 && line[0] == binaryReportLead {
		return parseBinaryReport(line[1:])
	}
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
		c.m.decodeFallbacks[e.Type].Inc()
	}
	return e, nil
}

// A sample report has a second spelling, one binary line, which Send writes
// whenever the form carries the report exactly: trace.AppendReportBinary's
// rule, and a via whose strings are valid UTF-8.
//
//	line = 0xB2 · stuffed( via · trace.AppendReportBinary's report ) · '\n'
//	via  = 0 | 1 · gateway · shard
//
// The strings are trace.AppendStringBinary's, the stuffing trace.Stuff's. A
// JSON line opens with '{' and no UTF-8 text opens with 0xB2, so Recv tells
// the two apart by the first byte, with no negotiation, and reads JSON from
// any peer as before. JSON stays the specification: Recv of the binary line
// is what json.Unmarshal makes of the JSON frame (TestSendBytesMatchJSON,
// FuzzBinarySampleReportDecode), and the decoder is canonical and fails
// closed: it accepts only a line the encoder writes, and a line it refuses is
// a decode error, since encoding/json cannot read it either.
const binaryReportLead = 0xB2

// maxReportSamples caps a report's samples either way: one for each 89 bytes
// of the longest line, the JSON of a sample with every field empty.
const maxReportSamples = MaxMessageBytes / 89 // 94,254

var errBinaryReport = errors.New("wire: decoding message: malformed binary sample report")

// appendBinaryReport appends e's binary line to b if e is a sample report and
// nothing else, via aside, and the binary form carries it.
func appendBinaryReport(b []byte, e *Envelope) ([]byte, bool) {
	if e.Type != TypeSampleReport || !only(*e, Envelope{SampleReport: e.SampleReport}) {
		return b, false
	}
	start := len(b)
	b = append(b, binaryReportLead, 0)
	if v := e.Via; v != nil {
		if !utf8.ValidString(v.Gateway) || !utf8.ValidString(v.Shard) {
			return b[:start], false
		}
		b[start+1] = 1
		b = trace.AppendStringBinary(trace.AppendStringBinary(b, v.Gateway), v.Shard)
	}
	b, ok := trace.AppendReportBinary(b, e.SampleReport.ClientID, e.SampleReport.Samples)
	if !ok {
		return b[:start], false
	}
	return append(trace.Stuff(b, start+1), '\n'), true
}

// parseBinaryReport decodes the stuffed body of a binary report line. A body
// with an escape in it is unstuffed into a pooled buffer; the envelope holds
// none of it.
func parseBinaryReport(stuffed []byte) (Envelope, error) {
	body := stuffed
	if bytes.IndexByte(stuffed, trace.SlipEsc) >= 0 {
		buf := frameBufs.Get().(*bytes.Buffer)
		defer putFrameBuf(buf)
		buf.Grow(len(stuffed))
		var ok bool
		if body, ok = trace.Unstuff(buf.AvailableBuffer(), stuffed); !ok {
			return Envelope{}, errBinaryReport
		}
	}
	if len(body) == 0 || body[0] > 1 {
		return Envelope{}, errBinaryReport
	}
	hasVia := body[0] == 1
	body = body[1:]
	var gateway, shard []byte
	if hasVia {
		var gok, sok bool
		gateway, body, gok = trace.ReadStringBinary(body)
		shard, body, sok = trace.ReadStringBinary(body)
		if !gok || !sok {
			return Envelope{}, errBinaryReport
		}
	}
	clientID, samples, err := trace.ParseReportBinary(nil, body, maxReportSamples)
	switch {
	case errors.Is(err, trace.ErrTooManySamples):
		return Envelope{}, ErrMessageTooLarge
	case err != nil:
		return Envelope{}, errBinaryReport
	}
	e := Envelope{Type: TypeSampleReport, SampleReport: &SampleReport{ClientID: clientID, Samples: samples}}
	if hasVia {
		e.Via = &Via{Gateway: string(gateway), Shard: string(shard)}
	}
	return e, nil
}

// Seven frames the codec spells by hand as JSON, because they are nearly
// every frame the system moves but a sample report (binary, above): a
// client's round trip (a zone report and its task list, a sample's ack), a
// query (an estimate or zone-list request) and its reply — a zone list, or an
// estimate without a sketch. Records go through core's record codec; the
// rest is spelled here with trace's Canon readers and JSON writers.
// All of it is held to encoding/json, which still does everything else:
// appendHandSpelled writes exactly what the encoder would and leaves what it
// would refuse to it, and parseHandSpelled reads only a frame in that
// canonical spelling, to what json.Unmarshal would have made of it, and
// declines any other, which json.Unmarshal then decodes as it always has
// (the *MatchesJSON tests and fuzzers).
//
//	frame   = `{"type":"` T `",` [ via `,` ] `"` T `":` payload `}`
//	via     = `"via":{"gateway":` string [ `,"shard":` nonempty-string ] `}`
//	payload = `{"records":` ( `null` | `[]` | `[` record { `,` record } `]` ) `}` T = zone_list_reply
//	        | `{"found":` ( `true` | `false` ) `,"record":` record `}`         T = estimate_reply
//	        | `{"client_id":` string `,"zone":` zone `,"loc":{"lat":` number `,"lon":` number
//	          `},"speed_kmh":` number `,"at":` time `,"networks":` list(string) `}` T = zone_report
//	        | `{"tasks":` list(task) `}`                                         T = task_list
//	        | `{"accepted":` int `}`                                             T = sample_ack
//	        | `{"zone":` zone `,"network":` string `,"metric":` string
//	          [ `,"with_sketch":true` ] `}`                                     T = estimate_request
//	        | `{"network":` string `,"metric":` string `}`                       T = zone_list_request
//	task    = `{"network":` string `,"metric":` string [ `,"udp_packets":` nonzero-int ]
//	          [ `,"udp_size_bytes":` nonzero-int ] [ `,"tcp_bytes":` nonzero-int ] `}`
//	zone    = `{"x":` int `,"y":` int `}`
//	list(x) = `null` | `[]` | `[` x { `,` x } `]`

// A handCodec spells one frame type's payload, less its closing brace, which
// appendHandSpelled and parseHandSpelled write and read with the rest of the
// frame. Its functions take envelopes and cursors by value: they are called
// through the table, and a pointer given to an indirect call escapes, which
// would cost Send or Recv an allocation a frame.
type handCodec struct {
	typ MsgType
	// holds: e's payload is set, in the shape the codec spells, and nothing
	// else is, Via aside.
	holds func(e Envelope) bool
	// append's error is for a value encoding/json refuses too.
	append func(b []byte, e Envelope) ([]byte, error)
	// parse returns an envelope holding only the payload.
	parse func(c trace.Canon) (Envelope, trace.Canon)
}

// only reports whether e holds p's one payload, which is set, and nothing
// else but its type and via.
func only(e, p Envelope) bool {
	if p == (Envelope{}) {
		return false
	}
	p.Type, p.Via = e.Type, e.Via
	return e == p
}

// handCodecs is the one list of the frames Send spells and Recv parses, an
// entry a type. parseHandSpelled takes the first type a frame opens with, so
// none may be a prefix of another.
var handCodecs = [...]handCodec{{
	TypeZoneListReply,
	func(e Envelope) bool { return only(e, Envelope{ZoneListReply: e.ZoneListReply}) },
	func(b []byte, e Envelope) ([]byte, error) {
		return core.AppendRecordsJSON(append(b, `{"records":`...), e.ZoneListReply.Records)
	},
	func(c trace.Canon) (Envelope, trace.Canon) {
		c.Lit(`{"records":`)
		r := &ZoneListReply{Records: core.ParseRecordsJSON(&c)}
		return Envelope{ZoneListReply: r}, c
	},
}, {
	TypeEstimateReply,
	func(e Envelope) bool {
		return only(e, Envelope{EstimateReply: e.EstimateReply}) && len(e.EstimateReply.Sketch) == 0
	},
	func(b []byte, e Envelope) ([]byte, error) {
		b = strconv.AppendBool(append(b, `{"found":`...), e.EstimateReply.Found)
		return core.AppendRecordJSON(append(b, `,"record":`...), e.EstimateReply.Record)
	},
	func(c trace.Canon) (Envelope, trace.Canon) {
		r := &EstimateReply{}
		c.Lit(`{"found":`)
		if r.Found = c.TryLit("true"); !r.Found {
			c.Lit("false")
		}
		c.Lit(`,"record":`)
		core.ParseRecordJSON(&c, &r.Record, &core.Record{})
		return Envelope{EstimateReply: r}, c
	},
}, {
	TypeZoneReport,
	func(e Envelope) bool { return only(e, Envelope{ZoneReport: e.ZoneReport}) },
	func(b []byte, e Envelope) ([]byte, error) {
		r := e.ZoneReport
		for _, f := range [...]float64{r.Loc.Lat, r.Loc.Lon, r.SpeedKmh} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return b, errors.New("unsupported value")
			}
		}
		b = trace.AppendStringJSON(append(b, `{"client_id":`...), r.ClientID)
		b = core.AppendZoneJSON(append(b, `,"zone":`...), r.Zone)
		b = trace.AppendJSONFloat(append(b, `,"loc":{"lat":`...), r.Loc.Lat)
		b = trace.AppendJSONFloat(append(b, `,"lon":`...), r.Loc.Lon)
		b = trace.AppendJSONFloat(append(b, `},"speed_kmh":`...), r.SpeedKmh)
		b, err := trace.AppendJSONTime(append(b, `,"at":"`...), r.At)
		return appendList(append(b, `","networks":`...), r.Networks, appendNetwork), err
	},
	func(c trace.Canon) (Envelope, trace.Canon) {
		c.Lit(`{"client_id":`)
		r := &ZoneReport{ClientID: c.String("")}
		c.Lit(`,"zone":`)
		r.Zone = core.ParseZoneJSON(&c)
		c.Lit(`,"loc":{"lat":`)
		r.Loc.Lat = c.Number()
		c.Lit(`,"lon":`)
		r.Loc.Lon = c.Number()
		c.Lit(`},"speed_kmh":`)
		r.SpeedKmh = c.Number()
		c.Lit(`,"at":`)
		r.At = c.Time()
		c.Lit(`,"networks":`)
		r.Networks = parseList(&c, parseNetwork)
		return Envelope{ZoneReport: r}, c
	},
}, {
	TypeTaskList,
	func(e Envelope) bool { return only(e, Envelope{TaskList: e.TaskList}) },
	func(b []byte, e Envelope) ([]byte, error) {
		return appendList(append(b, `{"tasks":`...), e.TaskList.Tasks, appendTask), nil
	},
	func(c trace.Canon) (Envelope, trace.Canon) {
		c.Lit(`{"tasks":`)
		l := &TaskList{Tasks: parseList(&c, parseTask)}
		return Envelope{TaskList: l}, c
	},
}, {
	TypeSampleAck,
	func(e Envelope) bool { return only(e, Envelope{SampleAck: e.SampleAck}) },
	func(b []byte, e Envelope) ([]byte, error) {
		return strconv.AppendInt(append(b, `{"accepted":`...), int64(e.SampleAck.Accepted), 10), nil
	},
	func(c trace.Canon) (Envelope, trace.Canon) {
		c.Lit(`{"accepted":`)
		a := &SampleAck{Accepted: int(c.Int(strconv.IntSize))}
		return Envelope{SampleAck: a}, c
	},
}, {
	TypeEstimateRequest,
	func(e Envelope) bool { return only(e, Envelope{EstimateRequest: e.EstimateRequest}) },
	func(b []byte, e Envelope) ([]byte, error) {
		r := e.EstimateRequest
		b = appendNetMetric(core.AppendZoneJSON(append(b, `{"zone":`...), r.Zone), ',', r.Network, r.Metric)
		if r.WithSketch {
			b = append(b, `,"with_sketch":true`...)
		}
		return b, nil
	},
	func(c trace.Canon) (Envelope, trace.Canon) {
		r := &EstimateRequest{}
		c.Lit(`{"zone":`)
		r.Zone = core.ParseZoneJSON(&c)
		r.Network, r.Metric = parseNetMetric(&c, ",")
		r.WithSketch = c.TryLit(`,"with_sketch":true`)
		return Envelope{EstimateRequest: r}, c
	},
}, {
	TypeZoneListRequest,
	func(e Envelope) bool { return only(e, Envelope{ZoneListRequest: e.ZoneListRequest}) },
	func(b []byte, e Envelope) ([]byte, error) {
		return appendNetMetric(b, '{', e.ZoneListRequest.Network, e.ZoneListRequest.Metric), nil
	},
	func(c trace.Canon) (Envelope, trace.Canon) {
		r := &ZoneListRequest{}
		r.Network, r.Metric = parseNetMetric(&c, "{")
		return Envelope{ZoneListRequest: r}, c
	},
}}

// speller returns the codec that spells e, or nil if Send leaves e to
// encoding/json.
func speller(e *Envelope) *handCodec {
	for i := range handCodecs {
		if h := &handCodecs[i]; h.typ == e.Type && h.holds(*e) {
			return h
		}
	}
	return nil
}

// handSpelled reports whether e is a frame Send spells itself. Recv counts a
// decoded one that reached encoding/json as a fallback.
func handSpelled(e *Envelope) bool { return speller(e) != nil }

// appendHandSpelled appends e's frame, '\n' included, to b if e is one Send
// spells by hand (handSpelled) and holds no value encoding/json refuses.
func appendHandSpelled(b []byte, e *Envelope) ([]byte, bool) {
	h := speller(e)
	if h == nil {
		return b, false
	}
	b = append(append(append(b, `{"type":"`...), e.Type...), `",`...)
	if e.Via != nil {
		b = trace.AppendStringJSON(append(b, `"via":{"gateway":`...), e.Via.Gateway)
		if e.Via.Shard != "" {
			b = trace.AppendStringJSON(append(b, `,"shard":`...), e.Via.Shard)
		}
		b = append(b, "},"...)
	}
	b, err := h.append(append(append(append(b, '"'), e.Type...), `":`...), *e)
	if err != nil {
		return b, false // encoding/json refuses it too, and says why
	}
	return append(b, "}}\n"...), true
}

// parseHandSpelled decodes line if it is a hand-spelled frame in canonical
// form.
func parseHandSpelled(line []byte) (Envelope, bool) {
	c := trace.Canon{B: line}
	c.Lit(`{"type":"`)
	var h *handCodec
	for i := range handCodecs {
		if c.TryLit(string(handCodecs[i].typ)) {
			h = &handCodecs[i]
			break
		}
	}
	c.Lit(`",`)
	var via *Via
	if c.TryLit(`"via":{"gateway":`) {
		via = &Via{Gateway: c.String("")}
		if c.TryLit(`,"shard":`) {
			if via.Shard = c.String(""); via.Shard == "" {
				return Envelope{}, false // omitempty never writes it
			}
		}
		c.Lit("},")
	}
	if c.Lit(`"`); c.Declined || h == nil {
		return Envelope{}, false
	}
	c.Lit(string(h.typ))
	c.Lit(`":`)
	e, c := h.parse(c) // past a mismatch it reads nothing, only allocates the payload
	if c.Lit("}}"); c.Declined || len(c.B) != 0 {
		return Envelope{}, false
	}
	e.Type, e.Via = h.typ, via
	return e, true
}

// appendNetMetric appends the `"network":…,"metric":…` pair a request and a
// task hold, after the byte before it.
func appendNetMetric(b []byte, before byte, n radio.NetworkID, m trace.Metric) []byte {
	b = trace.AppendStringJSON(append(append(b, before), `"network":`...), string(n))
	return trace.AppendStringJSON(append(b, `,"metric":`...), string(m))
}

func parseNetMetric(c *trace.Canon, before string) (radio.NetworkID, trace.Metric) {
	c.Lit(before)
	c.Lit(`"network":`)
	n := radio.NetworkID(parseName(c))
	c.Lit(`,"metric":`)
	return n, trace.Metric(parseName(c))
}

func appendTask(b []byte, t Task) []byte {
	b = appendNetMetric(b, '{', t.Network, t.Metric)
	for _, f := range [...]struct {
		key string
		v   int
	}{{`,"udp_packets":`, t.UDPPackets}, {`,"udp_size_bytes":`, t.UDPSizeBytes}, {`,"tcp_bytes":`, t.TCPBytes}} {
		if f.v != 0 { // omitempty
			b = strconv.AppendInt(append(b, f.key...), int64(f.v), 10)
		}
	}
	return append(b, '}')
}

func parseTask(c trace.Canon) (Task, trace.Canon) {
	var t Task
	t.Network, t.Metric = parseNetMetric(&c, "{")
	for _, f := range [...]struct {
		key string
		v   *int
	}{{`,"udp_packets":`, &t.UDPPackets}, {`,"udp_size_bytes":`, &t.UDPSizeBytes}, {`,"tcp_bytes":`, &t.TCPBytes}} {
		if c.TryLit(f.key) {
			if *f.v = int(c.Int(strconv.IntSize)); *f.v == 0 {
				c.Declined = true // omitempty never writes it
			}
		}
	}
	c.Lit(`}`)
	return t, c
}

// appendList appends items as a JSON array, or null for a nil slice.
func appendList[T any](b []byte, items []T, item func([]byte, T) []byte) []byte {
	if items == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = item(b, it)
	}
	return append(b, ']')
}

// parseList reads what appendList writes: nil for `null`, and otherwise a
// slice allocated once, at its length, once its items are read (up to eight
// of them into an array on the stack).
func parseList[T any](c *trace.Canon, item func(trace.Canon) (T, trace.Canon)) []T {
	if c.TryLit("null") {
		return nil
	}
	var small [8]T
	items := small[:0]
	if c.Lit("["); !c.TryLit("]") {
		for more := true; more; more = c.TryLit(",") {
			var it T
			it, *c = item(*c)
			items = append(items, it)
		}
		c.Lit("]")
	}
	if c.Declined {
		return nil
	}
	return append(make([]T, 0, len(items)), items...)
}

func appendNetwork(b []byte, n radio.NetworkID) []byte { return trace.AppendStringJSON(b, string(n)) }

func parseNetwork(c trace.Canon) (radio.NetworkID, trace.Canon) {
	n := radio.NetworkID(parseName(&c))
	return n, c
}

// knownNames are the network and metric names this tree defines.
var knownNames = map[string]string{}

func init() {
	for _, n := range radio.AllNetworks {
		knownNames[string(n)] = string(n)
	}
	for _, m := range trace.AllMetrics {
		knownNames[string(m)] = string(m)
	}
}

// parseName reads a network or metric name off c. One this tree defines
// comes back as its constant's string, not a copy.
func parseName(c *trace.Canon) string {
	like := ""
	if len(c.B) > 0 {
		if n := bytes.IndexByte(c.B[1:], '"'); n >= 0 {
			like = knownNames[string(c.B[1:n+1])]
		}
	}
	return c.String(like)
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

// ReadLine reads one \n-terminated line of at most limit bytes, '\n' not
// counted (Send measures a frame the same way), and returns it '\n' and all;
// a line is refused once more than limit of its bytes have arrived, without
// waiting for the rest. It is the one bounded delimiter reader, for
// envelopes and for the replication stream's lines. A line that fits br's
// buffer comes back as a view into it, valid until the next read from br, and
// no buffer; a longer one is gathered into a pooled buffer, which comes back
// with it for Recv to put back (other callers let it go).
func ReadLine(br *bufio.Reader, limit int) (line []byte, spill *bytes.Buffer, err error) {
	held, scanned := 0, 0 // the line's bytes in spill; those br holds with no '\n'
	for {
		// What br holds, or, once all that is scanned, one byte more.
		n := br.Buffered()
		if n == scanned && n < br.Size() {
			n++
		}
		var buf []byte
		buf, err = br.Peek(n)
		if i := bytes.IndexByte(buf[scanned:], '\n'); i >= 0 {
			end := scanned + i + 1
			if held+end-1 > limit {
				err = ErrMessageTooLarge
				break
			}
			_, _ = br.Discard(end) // buffered, so it cannot fail; buf holds until br's next fill
			if spill == nil {
				return buf[:end], nil, nil
			}
			spill.Write(buf[:end])
			return spill.Bytes(), spill, nil
		}
		scanned = len(buf)
		if held+scanned > limit {
			err = ErrMessageTooLarge
			break
		}
		if err != nil {
			break
		}
		if scanned == br.Size() {
			if spill == nil {
				spill = frameBufs.Get().(*bytes.Buffer)
			}
			spill.Write(buf)
			_, _ = br.Discard(scanned) // buffered, so it cannot fail
			held, scanned = held+scanned, 0
		}
	}
	if spill != nil {
		putFrameBuf(spill)
	}
	return nil, nil, err
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
