package wire

import "repro/internal/telemetry"

// Metrics counts codec activity for one side of the protocol. Build one with
// NewMetrics. A Conn holds a copy, which shares the instruments; a Conn
// without one holds the zero Metrics, whose nil instruments count nothing.
type Metrics struct {
	messagesEncoded  *telemetry.Counter
	bytesEncoded     *telemetry.Counter
	messagesDecoded  *telemetry.Counter
	bytesDecoded     *telemetry.Counter
	oversizedRejects *telemetry.Counter
	// decodeFallbacks counts, by frame type, the frames of a kind Recv
	// parses as JSON itself (handSpelled) that it left to encoding/json
	// because they were not in the canonical spelling it parses directly: a
	// peer that writes JSON another way pays the slower decode, it does not
	// fail. Its seven types: zone_list_reply, estimate_reply, zone_report,
	// task_list, sample_ack, estimate_request, zone_list_request.
	decodeFallbacks map[MsgType]*telemetry.Counter
	// encodeFallbacks counts, by frame type, the frames of a kind with a
	// binary line that Send wrote as JSON to a peer that reads the line,
	// because the binary form does not carry them exactly. Its four types:
	// zone_report, task_list, sample_report, sample_ack.
	encodeFallbacks map[MsgType]*telemetry.Counter
}

// NewMetrics registers the wire codec families on reg (nil reg returns a
// valid no-op Metrics) and resolves their series once, so the per-message
// cost is a single atomic add.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	msgs := reg.Counter("wiscape_wire_messages_total",
		"Protocol envelopes moved through the codec, by direction.", "dir")
	bytes := reg.Counter("wiscape_wire_bytes_total",
		"Framed protocol bytes moved through the codec, by direction.", "dir")
	m := &Metrics{
		messagesEncoded: msgs.With("encode"),
		bytesEncoded:    bytes.With("encode"),
		messagesDecoded: msgs.With("decode"),
		bytesDecoded:    bytes.With("decode"),
		oversizedRejects: reg.Counter("wiscape_wire_oversized_rejects_total",
			"Messages dropped for exceeding MaxMessageBytes (either direction).").With(),
	}
	decodeFallbacks := reg.Counter("wiscape_wire_decode_fallbacks_total",
		"Hand-spelled frame kinds decoded by encoding/json instead of the canonical-form parser, by type.", "type")
	encodeFallbacks := reg.Counter("wiscape_wire_encode_fallbacks_total",
		"Frames of a kind with a binary line written as JSON to a peer that reads binary, by type.", "type")
	m.decodeFallbacks = make(map[MsgType]*telemetry.Counter)
	m.encodeFallbacks = make(map[MsgType]*telemetry.Counter)
	for _, h := range handCodecs {
		if h.parseJSON != nil {
			m.decodeFallbacks[h.typ] = decodeFallbacks.With(string(h.typ))
		}
		if h.lead != 0 {
			m.encodeFallbacks[h.typ] = encodeFallbacks.With(string(h.typ))
		}
	}
	return m
}
