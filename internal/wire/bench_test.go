package wire

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// byteConn adapts plain readers/writers to net.Conn so the codec can be
// benchmarked without sockets: the cost measured is encode/decode +
// framing, not the kernel.
type byteConn struct {
	r io.Reader
	w io.Writer
}

func (c byteConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c byteConn) Write(p []byte) (int, error)      { return c.w.Write(p) }
func (c byteConn) Close() error                     { return nil }
func (c byteConn) LocalAddr() net.Addr              { return nil }
func (c byteConn) RemoteAddr() net.Addr             { return nil }
func (c byteConn) SetDeadline(time.Time) error      { return nil }
func (c byteConn) SetReadDeadline(time.Time) error  { return nil }
func (c byteConn) SetWriteDeadline(time.Time) error { return nil }

// repeatReader replays one frame forever, so Recv can be benchmarked
// steady-state without rebuilding input.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// benchReport builds a sample-report envelope with n samples — the
// envelope that dominates coordinator ingest traffic.
func benchReport(n int) Envelope {
	samples := make([]trace.Sample, n)
	at := time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC)
	for i := range samples {
		samples[i] = trace.Sample{
			Time:     at.Add(time.Duration(i) * time.Second),
			Loc:      geo.Point{Lat: 43.07 + float64(i)*1e-4, Lon: -89.4},
			ClientID: "bench-client",
			Device:   "laptop-usb-modem",
			Network:  radio.NetB,
			Metric:   trace.MetricUDPKbps,
			Value:    900.5,
		}
	}
	return Envelope{Type: TypeSampleReport, SampleReport: &SampleReport{
		ClientID: "bench-client",
		Samples:  samples,
	}}
}

// jsonReport is benchReport(n) with its last sample's time an hour east of
// UTC: a report the binary form does not carry, which Send writes as JSON.
func jsonReport(n int) Envelope {
	e := benchReport(n)
	last := &e.SampleReport.Samples[n-1]
	last.Time = last.Time.In(time.FixedZone("", 3600))
	return e
}

func benchmarkEncode(b *testing.B, e Envelope, m *Metrics) {
	b.SetBytes(int64(len(encodeFrames(b, e))))
	c := NewConn(byteConn{w: io.Discard}).Instrument(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode measures envelope marshal + framing throughput — the
// per-message codec cost next to which BenchmarkIngest* sits. A report goes
// as its binary line; samples=50/json is the same report with one time off
// UTC, which goes as JSON.
func BenchmarkEncode(b *testing.B) {
	for _, n := range []int{1, 32, 50, 1024} {
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			benchmarkEncode(b, benchReport(n), nil)
		})
	}
	b.Run("samples=50/json", func(b *testing.B) {
		benchmarkEncode(b, jsonReport(50), nil)
	})
	// The instrumented variant prices the telemetry hook on the codec
	// path: two nil-safe atomic adds per message.
	b.Run("samples=32/instrumented", func(b *testing.B) {
		benchmarkEncode(b, benchReport(32), NewMetrics(telemetry.NewRegistry()))
	})
}

func benchmarkDecode(b *testing.B, frame []byte, m *Metrics) {
	b.SetBytes(int64(len(frame)))
	c := NewConn(byteConn{r: &repeatReader{data: frame}}).Instrument(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures frame read + envelope unmarshal throughput: a
// report's binary line, and for samples=50/json the canonical JSON frame of
// the same report, as an agent that predates the binary form sends it.
func BenchmarkDecode(b *testing.B) {
	for _, n := range []int{1, 32, 50, 1024} {
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			benchmarkDecode(b, encodeFrames(b, benchReport(n)), nil)
		})
	}
	b.Run("samples=50/json", func(b *testing.B) {
		benchmarkDecode(b, jsonFrame(b, benchReport(50)), nil)
	})
	b.Run("samples=32/instrumented", func(b *testing.B) {
		benchmarkDecode(b, encodeFrames(b, benchReport(32)), NewMetrics(telemetry.NewRegistry()))
	})
}
