package wire

import "repro/internal/telemetry"

// Metrics counts codec activity for one side of the protocol. All fields
// are nil-safe telemetry instruments, so the zero value (and a nil
// *Metrics) cost nothing — uninstrumented connections stay free.
type Metrics struct {
	MessagesEncoded  *telemetry.Counter
	BytesEncoded     *telemetry.Counter
	MessagesDecoded  *telemetry.Counter
	BytesDecoded     *telemetry.Counter
	OversizedRejects *telemetry.Counter
	// DecodeFallbacks counts, by frame type, the frames of a kind Send
	// spells by hand (handSpelled) that Recv left to encoding/json because
	// they were not in the canonical spelling it parses directly: a peer that
	// writes JSON another way pays the slower decode, it does not fail. Its
	// eight types: sample_report, zone_list_reply, estimate_reply,
	// zone_report, task_list, sample_ack, estimate_request, zone_list_request.
	DecodeFallbacks map[MsgType]*telemetry.Counter
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
		MessagesEncoded: msgs.With("encode"),
		BytesEncoded:    bytes.With("encode"),
		MessagesDecoded: msgs.With("decode"),
		BytesDecoded:    bytes.With("decode"),
		OversizedRejects: reg.Counter("wiscape_wire_oversized_rejects_total",
			"Messages dropped for exceeding MaxMessageBytes (either direction).").With(),
	}
	fallbacks := reg.Counter("wiscape_wire_decode_fallbacks_total",
		"Hand-spelled frame kinds decoded by encoding/json instead of the canonical-form parser, by type.", "type")
	m.DecodeFallbacks = make(map[MsgType]*telemetry.Counter)
	for _, h := range handCodecs {
		m.DecodeFallbacks[h.typ] = fallbacks.With(string(h.typ))
	}
	return m
}

func (m *Metrics) encoded(frameBytes int) {
	if m == nil {
		return
	}
	m.MessagesEncoded.Inc()
	m.BytesEncoded.Add(float64(frameBytes))
}

func (m *Metrics) decoded(frameBytes int) {
	if m == nil {
		return
	}
	m.MessagesDecoded.Inc()
	m.BytesDecoded.Add(float64(frameBytes))
}

func (m *Metrics) oversized() {
	if m == nil {
		return
	}
	m.OversizedRejects.Inc()
}

func (m *Metrics) decodeFallback(t MsgType) {
	if m == nil {
		return
	}
	m.DecodeFallbacks[t].Inc()
}
