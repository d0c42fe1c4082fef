// Package wire defines the client<->coordinator protocol of the WiScape
// framework (§3.4): clients say hello, periodically report their
// coarse-grained zone, receive measurement task lists, and upload measured
// samples; applications query zone estimates.
//
// Messages are newline-delimited envelopes over any net.Conn, one line
// each, with an explicit per-line size cap so a misbehaving peer cannot
// exhaust server memory. Every envelope is a JSON line, which favours
// debuggability (every message is a greppable line, typed by hand in a
// drill), except the eight a client pays for: the four of its round trip —
// its zone report, the task list that answers it, its sample report and the
// ack — and the four of a query — an estimate or zone-list request and its
// reply. Each goes as one binary line to a peer that reads it, and JSON stays
// its specification and a spelling Recv still reads. A line's first byte says
// which it is.
//
// The package also holds the one serving skeleton every endpoint runs on:
// Listener (accept loop, tracked connections, Suspend/Resume/Close),
// ServeConn (the per-connection request/response loop) and Conn.Call (a
// round trip that yields the wanted reply or an error).
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
	ServerID string `json:"server_id"`
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

// ReplicaState is one attached replica stream as its primary sees it. A
// primary lists only attached streams, so Connected always reads true.
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
	m  Metrics // the zero bundle, which counts nothing, until Instrument

	// werr is the write that failed: a frame may have gone out in part, so
	// the stream is broken, and every later Send returns werr unsent.
	werr error

	// peerReadsBinary is set once Recv has decoded a binary line that only a
	// peer reading binary replies sends; from then on Send answers in binary
	// too. Recv sets it and Send reads it, from their two goroutines.
	peerReadsBinary atomic.Bool

	// store is what ServeConn decodes requests and Call decodes replies into
	// (see requestStore); a Conn does one or the other.
	store requestStore
}

// connBufBytes sizes a Conn's reader, the one buffer it keeps: bufio's
// default, the size net/http keeps per connection. A line shorter than this
// is decoded in place (see ReadLine); a longer one is gathered in a pooled
// frame buffer. Every agent holds such a Conn open on each hop of its path
// (its own, the gateway's, the gateway's upstream, the shard's), so the
// reader is most of what an idle agent costs the cluster, and it is sized
// for the lines that carry the traffic: a sample report, a zone report, a
// task list, an ack and an estimate reply all fit it, and only a zone list
// of more than a few dozen records, a read-plane reply, is gathered.
const connBufBytes = 4 << 10

// NewConn wraps a transport connection.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, br: bufio.NewReaderSize(nc, connBufBytes)}
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

// PutFrameBuf gives a frame buffer back to the pool: one a frame was
// encoded into, or one ReadLine gathered a line into, once its caller is
// done with the line. A nil buf is ignored.
func PutFrameBuf(buf *bytes.Buffer) {
	if buf != nil && buf.Cap() <= maxPooledFrameBytes {
		buf.Reset()
		frameBufs.Put(buf)
	}
}

// Send writes one envelope. The frame is encoded whole into a pooled buffer
// and goes to the transport from there in one write, so an oversized one is
// refused with nothing sent. A frame with a binary line goes as one to a
// peer that reads it (see peerReadsBinary), and as JSON otherwise. Once a
// write has failed, every later Send returns its error and writes nothing.
func (c *Conn) Send(e Envelope) error {
	if c.werr != nil {
		return c.werr
	}
	if e.SampleReport != nil && len(e.SampleReport.Samples) > maxReportSamples {
		c.m.oversizedRejects.Inc()
		return ErrMessageTooLarge
	}
	h := codecOf(e.Type)
	if h != nil && (!h.holds(e) || h.reply && !c.peerReadsBinary.Load()) {
		h = nil // JSON
	}
	buf := frameBufs.Get().(*bytes.Buffer)
	defer PutFrameBuf(buf)
	buf.Grow(frameSizeHint(&e, h))
	if h != nil {
		frame, err := appendBinaryLine(buf.AvailableBuffer(), h, &e)
		if err != nil {
			return fmt.Errorf("wire: encoding %s: %w", e.Type, err)
		}
		buf.Write(frame) // in place when the buffer had the room
	} else if err := encodeJSON(buf, e); err != nil {
		return fmt.Errorf("wire: encoding %s: %w", e.Type, err)
	}
	if buf.Len()-1 > MaxMessageBytes { // the line, as Recv measures it: without its '\n'
		c.m.oversizedRejects.Inc()
		return ErrMessageTooLarge
	}
	if _, err := c.nc.Write(buf.Bytes()); err != nil {
		c.werr = fmt.Errorf("wire: writing %s: %w", e.Type, err)
		return c.werr
	}
	c.m.messagesEncoded.Inc()
	c.m.bytesEncoded.Add(float64(buf.Len()))
	return nil
}

// encodeJSON writes exactly json.Marshal's bytes plus the frame's '\n'. The
// envelope escapes into the encoder here, in a copy, so that a frame Send
// writes as a binary line does not pay for one on the heap.
func encodeJSON(buf *bytes.Buffer, e Envelope) error {
	return json.NewEncoder(buf).Encode(&e)
}

// Recv reads the next envelope, enforcing the size cap. The envelope owns
// its memory: nothing in it is shared with another Recv's.
func (c *Conn) Recv() (Envelope, error) { return c.recv(nil) }

// recv is Recv decoding a binary request into dst (see requestStore); a nil
// dst is Recv's.
func (c *Conn) recv(dst *requestStore) (Envelope, error) {
	line, spill, err := ReadLine(c.br, MaxMessageBytes)
	if err != nil {
		if errors.Is(err, ErrMessageTooLarge) {
			c.m.oversizedRejects.Inc()
		}
		return Envelope{}, err
	}
	frameBytes := len(line)
	e, err := c.decode(line[:len(line)-1], dst)
	PutFrameBuf(spill) // line is spill's; the envelope holds none of it
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
// binary parsers copy every string they keep (or share one they already
// copied), encoding/json copies every string and []byte it decodes (Samples,
// the one custom unmarshaler, hands it its bytes), and no envelope type has a
// json.RawMessage field; one added later must copy. A binary sample or zone
// report and the via of a binary line decode into dst when it is not nil, and
// then share its slices with the request before; every string is still a
// copy, if perhaps one the request before made. Every time decodes in UTC
// either way: a binary line carries it so, and the JSON branch moves it.
func (c *Conn) decode(line []byte, dst *requestStore) (Envelope, error) {
	if len(line) > 0 {
		if h := codecByLead(line[0]); h != nil {
			e, err := parseBinaryLineInto(dst, h, line[1:])
			if err == nil && h.marksPeer {
				c.peerReadsBinary.Store(true)
			}
			return e, err
		}
	}
	var e Envelope // escapes into the decoder: declared past the path that does not need it
	if err := json.Unmarshal(line, &e); err != nil {
		return e, fmt.Errorf("wire: decoding message: %w", err)
	}
	if e.Type == "" {
		return e, errors.New("wire: message missing type")
	}
	if r := e.SampleReport; r != nil {
		for i := range r.Samples {
			r.Samples[i].Time = r.Samples[i].Time.UTC()
		}
	}
	if e.ZoneReport != nil {
		e.ZoneReport.At = e.ZoneReport.At.UTC()
	}
	if e.EstimateReply != nil {
		e.EstimateReply.Record.UpdatedAt = e.EstimateReply.Record.UpdatedAt.UTC()
	}
	if r := e.ZoneListReply; r != nil {
		for i := range r.Records {
			r.Records[i].UpdatedAt = r.Records[i].UpdatedAt.UTC()
		}
	}
	if h := codecOf(e.Type); h != nil && lineCarries(h, &e) {
		c.m.decodeFallbacks[e.Type].Inc()
	}
	return e, nil
}

// lineCarries reports whether h's binary line carries e: whether e, which
// arrived as JSON, could have come as a line.
func lineCarries(h *handCodec, e *Envelope) bool {
	if !h.holds(*e) {
		return false
	}
	buf := frameBufs.Get().(*bytes.Buffer)
	defer PutFrameBuf(buf)
	buf.Grow(frameSizeHint(e, h))
	_, err := h.appendBinary(buf.AvailableBuffer(), *e)
	return err == nil
}

// Eight frames have a second spelling, one binary line: the sample report,
// which carries nearly every byte an agent pays for, the rest of a client's
// round trip — its zone report, the task list that answers it, and a sample
// report's ack — and the read plane's four — an estimate or zone-list request
// and its reply.
//
//	line    = lead · stuffed( via · payload ) · '\n'
//	via     = 0 | 1 · gateway · shard
//	payload = trace.AppendReportBinary's report                        lead 0xB2, sample_report
//	        | client_id · zone.x · zone.y · lat · lon · speed_kmh · at
//	          · count · { network }                                    lead 0xB4, zone_report
//	        | count · { network · metric · udp_packets · udp_size_bytes
//	          · tcp_bytes }                                            lead 0xB5, task_list
//	        | accepted                                                 lead 0xB6, sample_ack
//	        | zone.x · zone.y · network · metric · flags               lead 0xB7, estimate_request
//	        | found · record                                           lead 0xB8, estimate_reply
//	        | network · metric                                         lead 0xB9, zone_list_request
//	        | count · { record }                                       lead 0xBA, zone_list_reply
//	record  = core.AppendRecordBinary's record
//
// A string is trace.AppendStringBinary's, a float trace.AppendFloatBinary's,
// a time trace.AppendTimeBinary's and the stuffing trace.Stuff's, so a string
// and a time are written as JSON carries them; a zone coordinate is a zig-zag
// varint, a task's sizes and an ack's count are uvarints, found is 0 or 1, an
// estimate request's flags a uvarint whose bit 0 is with_sketch, and a
// network or metric is trace.AppendName's index into
// radio.AllNetworks or trace.AllMetrics (0 and the name for one the tree does
// not define). A list's count is its length plus one, 0 standing for a nil
// list, which JSON spells null. (0xB3 is the WAL's report line.)
//
// A JSON line opens with '{' and no UTF-8 text opens with a byte of 0x80 or
// more, so Recv tells the forms apart by the first byte, with no negotiation,
// and reads JSON from any peer as before. JSON stays the specification: Recv
// of a binary line is what json.Unmarshal makes of the JSON frame, times in
// UTC, and the binary parsers are canonical and fail closed: each accepts
// only a line the encoder writes, and a line it refuses is a decode error,
// since encoding/json cannot read it either (the TestBinary*Layout tests,
// TestSendBytesMatchJSON, TestSmallSendBytesMatchJSON,
// FuzzBinarySampleReportDecode, FuzzReplyDecodeMatchesJSON). Send writes the
// binary line for every frame of the eight that holds its payload alone (a
// sample report at least one sample, an estimate reply no sketch) to a peer
// that reads it, and refuses one holding a value no line carries: what JSON
// refuses too (NaN, ±Inf, a time outside years 0–9999, see
// trace.ErrNoJSONForm), and a negative task size, ack count or record sample
// count, which no server writes. An estimate reply with a sketch — the
// shards' answer to a gateway that may merge — stays encoding/json's.
//
// A request — a sample or zone report, an estimate or zone-list request —
// goes binary to any peer. A reply goes binary only to a peer that has sent a
// binary zone report, task list, ack or query on the connection, which proves
// it reads them: a client typing JSON, or one built before its frames had
// binary lines, gets JSON replies. A binary sample report proves nothing,
// since clients sent those before they read binary replies.
const (
	binaryReportLead          = 0xB2
	binaryZoneReportLead      = 0xB4
	binaryTaskListLead        = 0xB5
	binarySampleAckLead       = 0xB6
	binaryEstimateRequestLead = 0xB7
	binaryEstimateReplyLead   = 0xB8
	binaryZoneListRequestLead = 0xB9
	binaryZoneListReplyLead   = 0xBA
)

// maxReportSamples caps a report's samples either way: one for each 89 bytes
// of the longest line, the JSON of a sample with every field empty.
const maxReportSamples = MaxMessageBytes / 89 // 94,254

// The fewest bytes a list item takes in a binary line: a network is an index,
// a task two indexes and three sizes (a record's is core.MinRecordBinary).
const (
	minNetworkBinary = 1
	minTaskBinary    = 5
)

// estimateWithSketch is an estimate request's with_sketch flag, the one bit
// of its flags a line may set.
const estimateWithSketch = 1 << 0

var (
	errBinaryLine = errors.New("wire: decoding message: malformed binary line")
	errNegative   = errors.New("wire: a negative count, which no binary line carries")
)

// appendBinaryLine appends e's binary line to b; h holds e. On an error b
// comes back unextended.
func appendBinaryLine(b []byte, h *handCodec, e *Envelope) ([]byte, error) {
	start := len(b)
	b = append(b, h.lead, 0)
	if v := e.Via; v != nil {
		b[start+1] = 1
		b = trace.AppendStringBinary(trace.AppendStringBinary(b, v.Gateway), v.Shard)
	}
	b, err := h.appendBinary(b, *e)
	if err != nil {
		return b[:start], err
	}
	return append(trace.Stuff(b, start+1), '\n'), nil
}

// parseBinaryLine decodes the stuffed body of one of h's binary lines into an
// envelope that owns its memory, as Recv does.
func parseBinaryLine(h *handCodec, stuffed []byte) (Envelope, error) {
	return parseBinaryLineInto(nil, h, stuffed)
}

// parseBinaryLineInto decodes the stuffed body of one of h's binary lines,
// into dst if it is not nil. A body with an escape in it is unstuffed into a
// pooled buffer; the envelope holds none of it.
func parseBinaryLineInto(dst *requestStore, h *handCodec, stuffed []byte) (Envelope, error) {
	body := stuffed
	if bytes.IndexByte(stuffed, trace.SlipEsc) >= 0 {
		buf := frameBufs.Get().(*bytes.Buffer)
		defer PutFrameBuf(buf)
		buf.Grow(len(stuffed))
		var ok bool
		if body, ok = trace.Unstuff(buf.AvailableBuffer(), stuffed); !ok {
			return Envelope{}, errBinaryLine
		}
	}
	r := trace.BinReader{B: body}
	var gateway, shard []byte
	hasVia := r.Uvarint()
	if hasVia == 1 {
		gateway, shard = r.Str(), r.Str()
	}
	if r.Bad || hasVia > 1 {
		return Envelope{}, errBinaryLine
	}
	e, err := h.parseBinary(r.B, dst)
	if err != nil {
		return Envelope{}, err
	}
	e.Type = h.typ
	if hasVia == 1 {
		e.Via = dst.via(gateway, shard)
	}
	return e, nil
}

// A requestStore is the storage a Conn decodes into, so that a frame does
// not cost a fresh slice: ServeConn's requests — the binary sample report and
// its samples, the binary zone report and its networks, the binary zone-list
// request, and a binary line's via — and Call's replies — a binary task list
// and its tasks, a binary ack, and a binary zone list and its records (see
// Replies). Each frame overwrites the one before, which is why only ServeConn,
// whose dispatcher is done with a request before the next is read, and Call,
// whose reply is valid until the next Call, decode into one. A string is
// never overwritten: one equal to the same field of the frame before is that
// frame's string (the client id, a sample's client and device, the via's
// gateway and shard), and otherwise a new copy. A slice stays with the
// connection only while it is at most maxPooledFrameBytes; a longer one is
// the frame's alone, so one huge report does not pin its samples on an idle
// connection. A nil *requestStore allocates every frame afresh, as Recv does.
type requestStore struct {
	report   SampleReport
	samples  []trace.Sample // the backing array of report.Samples
	zone     ZoneReport
	networks []radio.NetworkID // the backing array of zone.Networks
	query    ZoneListRequest
	relay    Via
	replies  Replies
}

// Replies are the slots a Conn holds a task list, an ack, an estimate reply
// and a zone list in: Call decodes its binary task lists, acks and zone lists
// into them, and on a served Conn they are the ones ServeConn hands its
// dispatcher to build its replies in, so that answering a zone or sample
// report, an estimate request, sketch and all, or a zone-list request costs
// the server nothing. Each reply overwrites the one before; ServeConn sends a
// reply before it reads the next request, and a Call's reply is valid until
// the next Call. A zone list and its records are in a slot the Replies
// borrows from zoneLists, and gives back once ServeConn has sent the reply or
// at the Conn's next Call. A nil *Replies allocates every reply afresh.
type Replies struct {
	list     TaskList
	tasks    []Task // the backing array of list.Tasks
	ack      SampleAck
	estimate EstimateReply
	sketch   []byte        // the backing array of estimate.Sketch
	zoneList *zoneListSlot // borrowed from zoneLists, or nil
}

// A zoneListSlot is a zone list and the array its records are in.
type zoneListSlot struct {
	reply   ZoneListReply
	records []core.Record // the backing array of reply.Records
}

// zoneLists lends the slots zone lists are built and decoded in. A list
// grows with the service area, so its slot is pooled, as frame buffers are,
// not kept per connection: an idle connection pins none, and the pool lets
// go of what it holds within two garbage collections.
var zoneLists = sync.Pool{New: func() any { return new(zoneListSlot) }}

// retainable reports whether a connection may keep s's backing array.
func retainable[T any](s []T) bool {
	var item T
	return uintptr(cap(s))*unsafe.Sizeof(item) <= maxPooledFrameBytes
}

// out is d's reply slots, or nil.
func (d *requestStore) out() *Replies {
	if d == nil {
		return nil
	}
	return &d.replies
}

// via returns the via a line names.
func (d *requestStore) via(gateway, shard []byte) *Via {
	if d == nil {
		return &Via{Gateway: string(gateway), Shard: string(shard)}
	}
	d.relay = Via{Gateway: trace.TextLike(gateway, d.relay.Gateway), Shard: trace.TextLike(shard, d.relay.Shard)}
	return &d.relay
}

// sampleBuf is the slice a sample report decodes into: d's, emptied, or nil.
func (d *requestStore) sampleBuf() []trace.Sample {
	if d == nil {
		return nil
	}
	return d.samples[:0]
}

// sampleReport returns a report of clientID and samples, which were decoded
// into sampleBuf: d's, if samples may stay with it.
func (d *requestStore) sampleReport(clientID string, samples []trace.Sample) *SampleReport {
	if d == nil || !retainable(samples) {
		return &SampleReport{ClientID: clientID, Samples: samples}
	}
	d.samples, d.report = samples, SampleReport{ClientID: clientID, Samples: samples}
	return &d.report
}

// networkBuf is the slice a zone report's networks decode into: d's, or nil.
func (d *requestStore) networkBuf() []radio.NetworkID {
	if d == nil {
		return nil
	}
	return d.networks
}

// zoneReport returns zr, its networks decoded into networkBuf, with the
// client id client spells: d's, if its networks may stay with it.
func (d *requestStore) zoneReport(client []byte, zr ZoneReport) *ZoneReport {
	if d == nil || !retainable(zr.Networks) {
		zr.ClientID = string(client)
		p := new(ZoneReport) // not &zr, which would put zr on the heap on every call
		*p = zr
		return p
	}
	zr.ClientID = trace.TextLike(client, d.zone.ClientID)
	if zr.Networks != nil {
		d.networks = zr.Networks
	}
	d.zone = zr
	return &d.zone
}

// zoneListRequest returns q: d's, if d is not nil.
func (d *requestStore) zoneListRequest(q ZoneListRequest) *ZoneListRequest {
	if d == nil {
		p := new(ZoneListRequest) // not &q, which would put q on the heap on every call
		*p = q
		return p
	}
	d.query = q
	return &d.query
}

// TaskBuf is the slice a task list is drawn or decoded into: r's, emptied,
// or nil.
func (r *Replies) TaskBuf() []Task {
	if r == nil {
		return nil
	}
	return r.tasks[:0]
}

// TaskList returns a task list of tasks, which were drawn or decoded into
// TaskBuf: r's, if tasks may stay with it.
func (r *Replies) TaskList(tasks []Task) *TaskList {
	if r == nil || !retainable(tasks) {
		return &TaskList{Tasks: tasks}
	}
	if tasks != nil {
		r.tasks = tasks
	}
	r.list = TaskList{Tasks: tasks}
	return &r.list
}

// SampleAck returns an ack of accepted samples.
func (r *Replies) SampleAck(accepted int) *SampleAck {
	if r == nil {
		return &SampleAck{Accepted: accepted}
	}
	r.ack = SampleAck{Accepted: accepted}
	return &r.ack
}

// SketchBuf is the slice an estimate reply's sketch is appended to: r's,
// emptied, or nil.
func (r *Replies) SketchBuf() []byte {
	if r == nil {
		return nil
	}
	return r.sketch[:0]
}

// EstimateReply returns an estimate reply of found, rec and sketch, which was
// appended to SketchBuf (nil for none): r's, if sketch may stay with it.
func (r *Replies) EstimateReply(found bool, rec core.Record, sketch []byte) *EstimateReply {
	if r == nil || !retainable(sketch) {
		return &EstimateReply{Found: found, Record: rec, Sketch: sketch}
	}
	if sketch != nil {
		r.sketch = sketch
	}
	r.estimate = EstimateReply{Found: found, Record: rec, Sketch: sketch}
	return &r.estimate
}

// RecordBuf is the slice a zone list's records are appended or decoded into:
// the array of a slot r borrows from zoneLists, emptied, or nil.
func (r *Replies) RecordBuf() []core.Record {
	if r == nil {
		return nil
	}
	if r.zoneList == nil {
		r.zoneList = zoneLists.Get().(*zoneListSlot)
	}
	return r.zoneList.records[:0]
}

// ZoneListReply returns a zone list of records, which were appended to
// RecordBuf: r's, if records may stay with it. An empty list goes out as
// none, nil, as Controller.Records gives it.
func (r *Replies) ZoneListReply(records []core.Record) *ZoneListReply {
	if len(records) == 0 {
		records = nil
	}
	return r.zoneListReply(records)
}

// zoneListReply is ZoneListReply keeping an empty list empty: a decoded
// count of 1 is an empty list, not none, as json.Unmarshal reads [].
func (r *Replies) zoneListReply(records []core.Record) *ZoneListReply {
	if r == nil || r.zoneList == nil || !retainable(records) {
		return &ZoneListReply{Records: records}
	}
	slot := r.zoneList
	if records != nil {
		slot.records = records
	}
	slot.reply = ZoneListReply{Records: records}
	return &slot.reply
}

// putZoneList gives the slot r borrowed for a zone list back to zoneLists.
// The list built in it is no longer r's to send.
func (r *Replies) putZoneList() {
	if r.zoneList != nil {
		r.zoneList.reply = ZoneListReply{}
		zoneLists.Put(r.zoneList)
		r.zoneList = nil
	}
}

// appendBinaryList appends what readBinaryList reads: the count plus one, 0
// for a nil slice, and the items.
func appendBinaryList[T any](b []byte, items []T, item func([]byte, T) []byte) []byte {
	if items == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(items))+1)
	for _, it := range items {
		b = item(b, it)
	}
	return b
}

// readBinaryList reads a list off r: nil for a count of 0, and otherwise a
// non-nil slice of the count less one, empty for a count of 1, once that
// length is checked against the bytes left, each item taking at least min of
// them. The slice is dst's array, if dst is not nil and has the room, and
// otherwise one allocated at its length.
func readBinaryList[T any](r *trace.BinReader, dst []T, min int, item func(trace.BinReader) (T, trace.BinReader)) []T {
	n := r.Uvarint()
	if r.Bad || n == 0 {
		return nil
	}
	if n-1 > uint64(len(r.B)/min) {
		r.Bad = true
		return nil
	}
	if dst == nil || uint64(cap(dst)) < n-1 {
		dst = make([]T, n-1)
	}
	items := dst[:n-1]
	for i := range items {
		items[i], *r = item(*r)
	}
	return items
}

func appendNetworkBinary(b []byte, n radio.NetworkID) []byte {
	return trace.AppendName(b, n, radio.AllNetworks)
}

func readNetworkBinary(r trace.BinReader) (radio.NetworkID, trace.BinReader) {
	n := trace.ReadName(&r, radio.AllNetworks, "")
	return n, r
}

// appendTaskBinary appends t, whose sizes are not negative.
func appendTaskBinary(b []byte, t Task) []byte {
	b = appendNamesBinary(b, t.Network, t.Metric)
	for _, v := range [...]int{t.UDPPackets, t.UDPSizeBytes, t.TCPBytes} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

func readTaskBinary(r trace.BinReader) (Task, trace.BinReader) {
	var t Task
	t.Network, t.Metric = readNamesBinary(&r)
	t.UDPPackets, t.UDPSizeBytes, t.TCPBytes = readIntBinary(&r), readIntBinary(&r), readIntBinary(&r)
	return t, r
}

// readIntBinary reads a uvarint that fits an int.
func readIntBinary(r *trace.BinReader) int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.Bad = true
		return 0
	}
	return int(v)
}

// appendZoneBinary appends a zone's coordinates, each a zig-zag varint.
func appendZoneBinary(b []byte, z geo.ZoneID) []byte {
	return binary.AppendVarint(binary.AppendVarint(b, int64(z.X)), int64(z.Y))
}

func readZoneBinary(r *trace.BinReader) geo.ZoneID {
	return geo.ZoneID{X: r.Int32(), Y: r.Int32()}
}

// appendNamesBinary appends a network and a metric, as a task, a query and a
// record name them.
func appendNamesBinary(b []byte, n radio.NetworkID, m trace.Metric) []byte {
	return trace.AppendName(trace.AppendName(b, n, radio.AllNetworks), m, trace.AllMetrics)
}

func readNamesBinary(r *trace.BinReader) (radio.NetworkID, trace.Metric) {
	return trace.ReadName(r, radio.AllNetworks, ""), trace.ReadName(r, trace.AllMetrics, "")
}

// Every binary line is spelled by one row of handCodecs, an entry a type: its
// lead, which peers it goes to, and its payload's appender and parser. JSON
// is encoding/json's both ways, for every frame: one of the eight a peer that
// types JSON, or one built before the frame had a binary line, sends or is
// sent, and the twelve other types.

// A handCodec spells one frame type's binary line. Its functions take
// envelopes and cursors by value: they are called through the table, and a
// pointer given to an indirect call escapes, which would cost Send or Recv an
// allocation a frame.
type handCodec struct {
	typ MsgType
	// holds: e's payload is set, in the shape the line spells, and nothing
	// else is, Via aside.
	holds func(e Envelope) bool

	// lead opens the type's binary line.
	lead byte
	// reply: Send writes the line only to a peer that reads it.
	reply bool
	// marksPeer: a peer that sends the line reads every binary reply.
	marksPeer bool
	// itemBytes is what Send reserves for each sample, task or record of a
	// line's payload (see frameSizeHint).
	itemBytes int
	// appendBinary refuses a payload holding a value no line carries.
	appendBinary func(b []byte, e Envelope) ([]byte, error)
	// parseBinary reads a whole payload into an envelope holding only it,
	// decoded into dst's storage for the row, if dst has some and is not nil.
	parseBinary func(b []byte, dst *requestStore) (Envelope, error)
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

// handCodecs is the one list of the frames with a binary line, an entry a
// type, the busiest first.
var handCodecs = [...]handCodec{{
	// A report with no samples is encoding/json's both ways: the binary form
	// does not spell it.
	typ: TypeSampleReport,
	holds: func(e Envelope) bool {
		return only(e, Envelope{SampleReport: e.SampleReport}) && len(e.SampleReport.Samples) > 0
	},
	lead:      binaryReportLead,
	itemBytes: 32, // 11 when a sample's loc repeats the one before's, 29 when it does not
	appendBinary: func(b []byte, e Envelope) ([]byte, error) {
		return trace.AppendReportBinary(b, e.SampleReport.ClientID, e.SampleReport.Samples)
	},
	parseBinary: func(b []byte, dst *requestStore) (Envelope, error) {
		clientID, samples, err := trace.ParseReportBinary(dst.sampleBuf(), b, maxReportSamples)
		switch {
		case errors.Is(err, trace.ErrTooManySamples):
			return Envelope{}, ErrMessageTooLarge
		case err != nil:
			return Envelope{}, errBinaryLine
		}
		return Envelope{SampleReport: dst.sampleReport(clientID, samples)}, nil
	},
}, {
	typ:       TypeZoneReport,
	holds:     func(e Envelope) bool { return only(e, Envelope{ZoneReport: e.ZoneReport}) },
	lead:      binaryZoneReportLead,
	marksPeer: true,
	appendBinary: func(b []byte, e Envelope) ([]byte, error) {
		r := e.ZoneReport
		b = appendZoneBinary(trace.AppendStringBinary(b, r.ClientID), r.Zone)
		for _, f := range [...]float64{r.Loc.Lat, r.Loc.Lon, r.SpeedKmh} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return b, trace.ErrNoJSONForm
			}
			b = trace.AppendFloatBinary(b, f)
		}
		b, ok := trace.AppendTimeBinary(b, r.At)
		if !ok {
			return b, trace.ErrNoJSONForm
		}
		return appendBinaryList(b, r.Networks, appendNetworkBinary), nil
	},
	parseBinary: func(b []byte, dst *requestStore) (Envelope, error) {
		r := trace.BinReader{B: b}
		client := r.Str()
		zone := readZoneBinary(&r)
		loc := geo.Point{Lat: r.Float(), Lon: r.Float()}
		speed, at := r.Float(), r.Time()
		networks := readBinaryList(&r, dst.networkBuf(), minNetworkBinary, readNetworkBinary)
		if r.Bad || len(r.B) != 0 {
			return Envelope{}, errBinaryLine
		}
		return Envelope{ZoneReport: dst.zoneReport(client, ZoneReport{
			Zone: zone, Loc: loc, SpeedKmh: speed, At: at, Networks: networks,
		})}, nil
	},
}, {
	typ:       TypeTaskList,
	holds:     func(e Envelope) bool { return only(e, Envelope{TaskList: e.TaskList}) },
	lead:      binaryTaskListLead,
	reply:     true,
	marksPeer: true,
	itemBytes: 32,
	appendBinary: func(b []byte, e Envelope) ([]byte, error) {
		for _, t := range e.TaskList.Tasks {
			if t.UDPPackets < 0 || t.UDPSizeBytes < 0 || t.TCPBytes < 0 {
				return b, errNegative
			}
		}
		return appendBinaryList(b, e.TaskList.Tasks, appendTaskBinary), nil
	},
	parseBinary: func(b []byte, dst *requestStore) (Envelope, error) {
		r := trace.BinReader{B: b}
		tasks := readBinaryList(&r, dst.out().TaskBuf(), minTaskBinary, readTaskBinary)
		if r.Bad || len(r.B) != 0 {
			return Envelope{}, errBinaryLine
		}
		return Envelope{TaskList: dst.out().TaskList(tasks)}, nil
	},
}, {
	typ:       TypeSampleAck,
	holds:     func(e Envelope) bool { return only(e, Envelope{SampleAck: e.SampleAck}) },
	lead:      binarySampleAckLead,
	reply:     true,
	marksPeer: true,
	appendBinary: func(b []byte, e Envelope) ([]byte, error) {
		if e.SampleAck.Accepted < 0 {
			return b, errNegative
		}
		return binary.AppendUvarint(b, uint64(e.SampleAck.Accepted)), nil
	},
	parseBinary: func(b []byte, dst *requestStore) (Envelope, error) {
		r := trace.BinReader{B: b}
		accepted := readIntBinary(&r)
		if r.Bad || len(r.B) != 0 {
			return Envelope{}, errBinaryLine
		}
		return Envelope{SampleAck: dst.out().SampleAck(accepted)}, nil
	},
}, {
	typ:       TypeEstimateRequest,
	holds:     func(e Envelope) bool { return only(e, Envelope{EstimateRequest: e.EstimateRequest}) },
	lead:      binaryEstimateRequestLead,
	marksPeer: true,
	appendBinary: func(b []byte, e Envelope) ([]byte, error) {
		q := e.EstimateRequest
		var flags uint64
		if q.WithSketch {
			flags = estimateWithSketch
		}
		return binary.AppendUvarint(appendNamesBinary(appendZoneBinary(b, q.Zone), q.Network, q.Metric), flags), nil
	},
	parseBinary: func(b []byte, _ *requestStore) (Envelope, error) {
		r := trace.BinReader{B: b}
		q := &EstimateRequest{Zone: readZoneBinary(&r)}
		q.Network, q.Metric = readNamesBinary(&r)
		flags := r.Uvarint()
		if r.Bad || len(r.B) != 0 || flags&^estimateWithSketch != 0 {
			return Envelope{}, errBinaryLine
		}
		q.WithSketch = flags == estimateWithSketch
		return Envelope{EstimateRequest: q}, nil
	},
}, {
	// An estimate reply with a sketch is encoding/json's both ways: the
	// sketch goes from a shard to the gateway that merges it, and no line
	// spells it.
	typ: TypeEstimateReply,
	holds: func(e Envelope) bool {
		return only(e, Envelope{EstimateReply: e.EstimateReply}) && len(e.EstimateReply.Sketch) == 0
	},
	lead:      binaryEstimateReplyLead,
	reply:     true,
	marksPeer: true,
	appendBinary: func(b []byte, e Envelope) ([]byte, error) {
		var found byte
		if e.EstimateReply.Found {
			found = 1
		}
		return core.AppendRecordBinary(append(b, found), e.EstimateReply.Record)
	},
	parseBinary: func(b []byte, _ *requestStore) (Envelope, error) {
		r := trace.BinReader{B: b}
		found := r.Uvarint()
		rec, r := core.ReadRecordBinary(r)
		if r.Bad || len(r.B) != 0 || found > 1 {
			return Envelope{}, errBinaryLine
		}
		return Envelope{EstimateReply: &EstimateReply{Found: found == 1, Record: rec}}, nil
	},
}, {
	typ:       TypeZoneListRequest,
	holds:     func(e Envelope) bool { return only(e, Envelope{ZoneListRequest: e.ZoneListRequest}) },
	lead:      binaryZoneListRequestLead,
	marksPeer: true,
	appendBinary: func(b []byte, e Envelope) ([]byte, error) {
		return appendNamesBinary(b, e.ZoneListRequest.Network, e.ZoneListRequest.Metric), nil
	},
	parseBinary: func(b []byte, dst *requestStore) (Envelope, error) {
		r := trace.BinReader{B: b}
		var q ZoneListRequest
		q.Network, q.Metric = readNamesBinary(&r)
		if r.Bad || len(r.B) != 0 {
			return Envelope{}, errBinaryLine
		}
		return Envelope{ZoneListRequest: dst.zoneListRequest(q)}, nil
	},
}, {
	typ:       TypeZoneListReply,
	holds:     func(e Envelope) bool { return only(e, Envelope{ZoneListReply: e.ZoneListReply}) },
	lead:      binaryZoneListReplyLead,
	reply:     true,
	marksPeer: true,
	itemBytes: 64, // 54 for a record of the benchmark's
	appendBinary: func(b []byte, e Envelope) ([]byte, error) {
		records := e.ZoneListReply.Records
		if records == nil {
			return append(b, 0), nil
		}
		b = binary.AppendUvarint(b, uint64(len(records))+1)
		for _, rec := range records {
			var err error
			if b, err = core.AppendRecordBinary(b, rec); err != nil {
				return b, err
			}
		}
		return b, nil
	},
	parseBinary: func(b []byte, dst *requestStore) (Envelope, error) {
		r := trace.BinReader{B: b}
		records := readBinaryList(&r, dst.out().RecordBuf(), core.MinRecordBinary, core.ReadRecordBinary)
		if r.Bad || len(r.B) != 0 {
			return Envelope{}, errBinaryLine
		}
		return Envelope{ZoneListReply: dst.out().zoneListReply(records)}, nil
	},
}}

// codecOf returns typ's row of handCodecs, or nil.
func codecOf(typ MsgType) *handCodec {
	for i := range handCodecs {
		if handCodecs[i].typ == typ {
			return &handCodecs[i]
		}
	}
	return nil
}

// codecByLead returns the row whose binary line opens with lead, or nil.
func codecByLead(lead byte) *handCodec {
	for i := range handCodecs {
		if handCodecs[i].lead == lead {
			return &handCodecs[i]
		}
	}
	return nil
}

// frameSizeHint is about what e's frame takes, counting the samples, records
// or tasks it carries: as JSON, 256 bytes each and as much again for the
// rest; as row's binary line, if row is not nil, its itemBytes each and 64
// for the rest. Send reserves it before encoding, so a long frame does not
// regrow its buffer on the way.
func frameSizeHint(e *Envelope, row *handCodec) int {
	items := 0
	switch {
	case e.SampleReport != nil:
		items = len(e.SampleReport.Samples)
	case e.ZoneListReply != nil:
		items = len(e.ZoneListReply.Records)
	case e.TaskList != nil:
		items = len(e.TaskList.Tasks)
	}
	if row != nil {
		return 64 + row.itemBytes*items
	}
	return 256 * (1 + items)
}

// ReadLine reads one \n-terminated line of at most limit bytes, '\n' not
// counted (Send measures a frame the same way), and returns it '\n' and all;
// a line is refused once more than limit of its bytes have arrived, without
// waiting for the rest. It is the one bounded delimiter reader, for
// envelopes and for the replication stream's lines. A line that fits br's
// buffer comes back as a view into it, valid until the next read from br, and
// no buffer; a longer one is gathered into a pooled buffer, which comes back
// with it for the caller to give back with PutFrameBuf once done with the
// line.
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
	PutFrameBuf(spill)
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
//
// Unlike Request's, a reply is valid only until the next Call on c: a binary
// task list and its tasks, a binary ack, and a binary zone list and its
// records are decoded into the Conn's Replies, the same slots a served Conn
// builds its replies in, and the next reply is decoded over them. A zone
// list and its records are in a slot the Conn borrows from a package pool;
// the next Call gives it back once its request is sent. Close does not, since a
// Close may cut a Call short from another goroutine, so after Close a reply
// stays the caller's. So a caller may keep a reply's strings, but neither
// keep nor hand to another goroutine its TaskList, Tasks, SampleAck,
// ZoneListReply or Records past its next Call; what it must keep, it copies.
// Every other reply owns its memory, as Request's does. A reply lacking its
// payload is checked here and not in decode, so that it comes back as a
// *ReplyError.
func (c *Conn) Call(req Envelope, want MsgType) (Envelope, error) {
	if err := c.Send(req); err != nil {
		return Envelope{}, err
	}
	c.store.replies.putZoneList() // the last reply's, which req may have been built from until Send
	reply, err := c.recv(&c.store)
	switch {
	case err != nil:
		return Envelope{}, err
	case reply.Type == want && reply.hasPayload():
		return reply, nil
	case reply.Type == TypeError && reply.Error != nil:
		return Envelope{}, &ReplyError{Message: reply.Error.Message}
	case reply.Type == want:
		return Envelope{}, &ReplyError{Message: fmt.Sprintf("%s reply has no payload", want)}
	default:
		return Envelope{}, &ReplyError{Message: fmt.Sprintf("unexpected reply %q", reply.Type)}
	}
}

// hasPayload reports whether e holds the payload its type needs: whether the
// payload field e.Type selects is set. A status request needs none, its
// payload being empty, and neither does a type this package does not define,
// which selects no field. Call holds a reply to it, and ServeConn a request.
func (e *Envelope) hasPayload() bool {
	switch e.Type {
	case TypeHello:
		return e.Hello != nil
	case TypeHelloAck:
		return e.HelloAck != nil
	case TypeZoneReport:
		return e.ZoneReport != nil
	case TypeTaskList:
		return e.TaskList != nil
	case TypeSampleReport:
		return e.SampleReport != nil
	case TypeSampleAck:
		return e.SampleAck != nil
	case TypeEstimateRequest:
		return e.EstimateRequest != nil
	case TypeEstimateReply:
		return e.EstimateReply != nil
	case TypeZoneListRequest:
		return e.ZoneListRequest != nil
	case TypeZoneListReply:
		return e.ZoneListReply != nil
	case TypeError:
		return e.Error != nil
	case TypeStatusReply:
		return e.StatusReply != nil
	case TypePromote:
		return e.Promote != nil
	case TypePromoteAck:
		return e.PromoteAck != nil
	case TypeDemote:
		return e.Demote != nil
	case TypeDemoteAck:
		return e.DemoteAck != nil
	}
	return true
}
