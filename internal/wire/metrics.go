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
	// decodeFallbacks counts, by frame type, the frames of a type with a
	// binary line that arrived as JSON although the line carries them: a
	// peer that types JSON, or one not yet upgraded to the line, which pays
	// the slower decode and does not fail. Its eight types are handCodecs'.
	decodeFallbacks map[MsgType]*telemetry.Counter
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
		"Frames of a type with a binary line that arrived as JSON although the line carries them, by type.", "type")
	m.decodeFallbacks = make(map[MsgType]*telemetry.Counter)
	for _, h := range handCodecs {
		m.decodeFallbacks[h.typ] = decodeFallbacks.With(string(h.typ))
	}
	return m
}
