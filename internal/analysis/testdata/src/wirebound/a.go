// Package wirebound is a fixture for the wirebound analyzer: envelope
// codec bypasses.
package wirebound

import (
	"bufio"
	"encoding/json"
	"io"

	"repro/internal/wire"
)

func marshalBypass(e wire.Envelope) ([]byte, error) {
	return json.Marshal(e) // want `wire\.Envelope passed to json\.Marshal`
}

func unmarshalBypass(data []byte) (wire.Envelope, error) {
	var e wire.Envelope
	err := json.Unmarshal(data, &e) // want `wire\.Envelope passed to json\.Unmarshal`
	return e, err
}

func streamBypass(w io.Writer, e wire.Envelope) error {
	return json.NewEncoder(w).Encode(e) // want `wire\.Envelope passed to \(\*json\.Encoder\)\.Encode`
}

func decodeBypass(r io.Reader) (wire.Envelope, error) {
	var e wire.Envelope
	err := json.NewDecoder(r).Decode(&e) // want `wire\.Envelope passed to \(\*json\.Decoder\)\.Decode`
	return e, err
}

// Negative cases: the capped codec, non-envelope JSON, and bounded
// line readers are all fine.

func throughConn(c *wire.Conn, e wire.Envelope) error {
	return c.Send(e)
}

func otherJSON(v map[string]int) ([]byte, error) {
	return json.Marshal(v)
}

func boundedScanner(r io.Reader) bool {
	return bufio.NewScanner(r).Scan()
}

func boundedSlice(br *bufio.Reader) ([]byte, error) {
	return br.ReadSlice('\n')
}

func suppressed(e wire.Envelope) ([]byte, error) {
	//lint:ignore wirebound fixture demonstrates the audited escape hatch
	return json.Marshal(e)
}
