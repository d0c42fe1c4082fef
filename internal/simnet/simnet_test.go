package simnet

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/stats"
)

const seed = 2022

func testField() *radio.Field {
	return radio.NewPresetField(radio.NetB, radio.RegionWI, seed, geo.Madison().Center())
}

func cleanSpot(f *radio.Field) geo.Point {
	// Find an untroubled point so tests of nominal behaviour are stable.
	c := geo.Madison().Center()
	for i := 0; i < 200; i++ {
		p := c.Offset(float64(i*37%360), float64(i)*120)
		if !f.Troubled(p) {
			return p
		}
	}
	return c
}

var at = radio.Epoch.Add(30 * 24 * time.Hour)

func TestUDPDownloadBasics(t *testing.T) {
	f := testField()
	p := NewProber(f, 1)
	loc := cleanSpot(f)
	fr := p.UDPDownload(loc, at, 100, 1200)
	if fr.Proto != "udp" || fr.Network != radio.NetB {
		t.Fatalf("flow labels wrong: %v %v", fr.Proto, fr.Network)
	}
	if len(fr.Packets) != 100 {
		t.Fatalf("packet count %d", len(fr.Packets))
	}
	for i, pk := range fr.Packets {
		if pk.Seq != i {
			t.Fatalf("sequence broken at %d", i)
		}
		if pk.SizeBytes != 1200 {
			t.Fatalf("size %d", pk.SizeBytes)
		}
		if !pk.Lost && pk.Recv.Before(pk.Sent) {
			t.Fatal("packet received before it was sent")
		}
		if pk.Lost && !pk.Recv.IsZero() {
			t.Fatal("lost packet has a receive timestamp")
		}
	}
}

func TestUDPThroughputTracksGroundTruth(t *testing.T) {
	f := testField()
	p := NewProber(f, 2)
	loc := cleanSpot(f)
	truth := f.At(loc, at).CapacityKbps
	var samples []float64
	for i := 0; i < 200; i++ {
		fr := p.UDPDownload(loc, at, 100, 1200)
		samples = append(samples, fr.ThroughputKbps())
	}
	m := stats.Mean(samples)
	if math.Abs(m-truth)/truth > 0.05 {
		t.Fatalf("mean measured %v vs truth %v", m, truth)
	}
	// Per-sample noise should be present but bounded (FastSigmaRel ~ 7%).
	rel := stats.RelStdDev(samples)
	if rel < 0.01 || rel > 0.25 {
		t.Fatalf("sample relative deviation %.3f outside expectations", rel)
	}
}

func TestUDPJitterMatchesField(t *testing.T) {
	f := testField()
	p := NewProber(f, 3)
	loc := cleanSpot(f)
	want := f.At(loc, at).JitterMs
	var samples []float64
	for i := 0; i < 200; i++ {
		fr := p.UDPDownload(loc, at, 100, 1200)
		samples = append(samples, fr.JitterMs())
	}
	m := stats.Mean(samples)
	if math.Abs(m-want)/want > 0.25 {
		t.Fatalf("measured jitter %v vs field %v", m, want)
	}
}

func TestUDPLossRate(t *testing.T) {
	f := testField()
	p := NewProber(f, 4)
	loc := cleanSpot(f)
	want := f.At(loc, at).LossProb
	total, lost := 0, 0
	for i := 0; i < 300; i++ {
		fr := p.UDPDownload(loc, at, 100, 1200)
		total += len(fr.Packets)
		lost += len(fr.Packets) - fr.Received()
	}
	got := float64(lost) / float64(total)
	if got > want*3+0.002 {
		t.Fatalf("loss rate %v vs field %v", got, want)
	}
}

func TestTCPSlowerAndNoisierThanUDP(t *testing.T) {
	f := testField()
	p := NewProber(f, 5)
	loc := cleanSpot(f)
	// Compare at matched transfer sizes (~120 KB) so the fading-averaging
	// durations are comparable.
	var udp, tcp []float64
	for i := 0; i < 150; i++ {
		udp = append(udp, p.UDPDownload(loc, at, 100, 1200).ThroughputKbps())
		tcp = append(tcp, p.TCPDownload(loc, at, 120<<10).ThroughputKbps())
	}
	if stats.Mean(tcp) >= stats.Mean(udp) {
		t.Fatalf("TCP mean %v should be below UDP mean %v", stats.Mean(tcp), stats.Mean(udp))
	}
	if stats.RelStdDev(tcp) <= stats.RelStdDev(udp)*0.8 {
		t.Fatalf("TCP rel dev %v should not be well below UDP %v (Table 4)",
			stats.RelStdDev(tcp), stats.RelStdDev(udp))
	}
}

func TestTCPShortFlowsUnderachieve(t *testing.T) {
	f := testField()
	p := NewProber(f, 6)
	loc := cleanSpot(f)
	var short, long []float64
	for i := 0; i < 100; i++ {
		short = append(short, p.TCPDownload(loc, at, 20*1024).ThroughputKbps())
		long = append(long, p.TCPDownload(loc, at, 2<<20).ThroughputKbps())
	}
	if stats.Mean(short) >= stats.Mean(long)*0.9 {
		t.Fatalf("20 KB flows (%v) should pay the slow-start tax vs 2 MB flows (%v)",
			stats.Mean(short), stats.Mean(long))
	}
}

func TestTCPDeliversAllBytes(t *testing.T) {
	f := testField()
	p := NewProber(f, 7)
	loc := cleanSpot(f)
	const total = 100000
	fr := p.TCPDownload(loc, at, total)
	got := 0
	for _, pk := range fr.Packets {
		if pk.Lost {
			t.Fatal("TCP must not surface lost packets (they are retransmitted)")
		}
		got += pk.SizeBytes
	}
	if got != total {
		t.Fatalf("delivered %d bytes, want %d", got, total)
	}
}

func TestPingTrain(t *testing.T) {
	f := testField()
	p := NewProber(f, 8)
	loc := cleanSpot(f)
	want := f.At(loc, at).RTTMs
	pings := p.PingTrain(loc, at, 500, 5*time.Second)
	if len(pings) != 500 {
		t.Fatalf("got %d pings", len(pings))
	}
	mean, failed := meanRTT(pings)
	if math.Abs(mean-want)/want > 0.15 {
		t.Fatalf("mean RTT %v vs field %v", mean, want)
	}
	if failed > 25 {
		t.Fatalf("%d/500 pings failed in a clean zone", failed)
	}
	for i, pr := range pings {
		if pr.Seq != i {
			t.Fatal("ping sequence broken")
		}
		if !pr.Failed && pr.RTTMs <= 0 {
			t.Fatal("successful ping with non-positive RTT")
		}
	}
}

func TestPingFailuresInTroubledZone(t *testing.T) {
	f := testField()
	p := NewProber(f, 9)
	// Find a troubled point.
	var spot *geo.Point
	c := geo.Madison().Center()
	for i := 0; i < 2000 && spot == nil; i++ {
		q := c.Offset(float64(i*17%360), float64(i)*35)
		if f.Troubled(q) {
			spot = &q
		}
	}
	if spot == nil {
		t.Skip("no troubled zone found near center")
	}
	pings := p.PingTrain(*spot, at, 500, 5*time.Second)
	_, failed := meanRTT(pings)
	if failed < 10 {
		t.Fatalf("troubled zone failed only %d/500 pings", failed)
	}
}

func TestHTTPGetScalesWithSize(t *testing.T) {
	f := testField()
	p := NewProber(f, 10)
	loc := cleanSpot(f)
	small := p.tcpTransfer(loc, at, 2800, false).Duration()
	big := p.tcpTransfer(loc, at, 3200000, false).Duration()
	if small <= 0 || big <= 0 {
		t.Fatal("non-positive fetch times")
	}
	if big < 10*small {
		t.Fatalf("3.2 MB (%v) should take far longer than 2.8 KB (%v)", big, small)
	}
	// A 3.2 MB page at ~800 Kbps should take tens of seconds.
	if big < 10*time.Second || big > 300*time.Second {
		t.Fatalf("3.2 MB fetch took %v; implausible for ~1 Mbps links", big)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	f := testField()
	loc := cleanSpot(f)
	a := NewProber(f, 42).UDPDownload(loc, at, 50, 1200)
	b := NewProber(f, 42).UDPDownload(loc, at, 50, 1200)
	if a.ThroughputKbps() != b.ThroughputKbps() {
		t.Fatal("same seed should reproduce the same measurement")
	}
	c := NewProber(f, 43).UDPDownload(loc, at, 50, 1200)
	if a.ThroughputKbps() == c.ThroughputKbps() {
		t.Fatal("different seeds should differ")
	}
}

func TestFlowResultEdgeCases(t *testing.T) {
	var fr FlowResult
	if fr.ThroughputKbps() != 0 || fr.JitterMs() != 0 || fr.LossRate() != 0 || fr.Duration() != 0 {
		t.Fatal("empty flow should yield zero metrics")
	}
	// All-lost flow.
	fr.Packets = []PacketRecord{{Seq: 0, Lost: true}, {Seq: 1, Lost: true}}
	if fr.ThroughputKbps() != 0 || fr.LossRate() != 1 {
		t.Fatal("all-lost flow metrics wrong")
	}
}

func TestMeanRTTEdge(t *testing.T) {
	m, failed := meanRTT([]PingResult{{Failed: true}, {Failed: true}})
	if m != 0 || failed != 2 {
		t.Fatalf("all-failed train: mean %v failed %d", m, failed)
	}
}

func TestStadiumLatencyVisibleInPings(t *testing.T) {
	f := testField()
	game := radio.FootballGame(radio.Epoch.Add(40*24*time.Hour + 13*time.Hour))
	f.AddEvent(game)
	p := NewProber(f, 11)
	before, _ := meanRTT(p.PingTrain(geo.CampRandallStadium, game.Start.Add(-2*time.Hour), 100, time.Second))
	during, _ := meanRTT(p.PingTrain(geo.CampRandallStadium, game.Start.Add(time.Hour), 100, time.Second))
	if during < 3*before {
		t.Fatalf("game RTT %v should be ~3.7x baseline %v", during, before)
	}
}

func BenchmarkUDPDownload100(b *testing.B) {
	f := testField()
	p := NewProber(f, 12)
	loc := geo.Madison().Center()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.UDPDownload(loc, at, 100, 1200)
	}
}

func BenchmarkTCPDownload1MB(b *testing.B) {
	f := testField()
	p := NewProber(f, 13)
	loc := geo.Madison().Center()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.TCPDownload(loc, at, 1<<20)
	}
}

func TestUDPUpload(t *testing.T) {
	f := testField()
	p := NewProber(f, 30)
	loc := cleanSpot(f)
	truth := f.At(loc, at).UplinkKbps
	if truth <= 0 {
		t.Fatal("field reports no uplink capacity")
	}
	var vals []float64
	for i := 0; i < 120; i++ {
		fr := p.UDPUpload(loc, at, 100, 1200)
		if fr.Proto != "udp-up" {
			t.Fatalf("proto %q", fr.Proto)
		}
		vals = append(vals, fr.ThroughputKbps())
	}
	m := stats.Mean(vals)
	if m < truth*0.93 || m > truth*1.07 {
		t.Fatalf("uplink mean %v vs truth %v", m, truth)
	}
	// Uplink must be well below downlink (EV-DO asymmetry).
	if m >= f.At(loc, at).CapacityKbps {
		t.Fatal("uplink should not exceed downlink")
	}
}

// meanRTT returns the mean RTT over successful pings and the count of
// failures.
func meanRTT(pings []PingResult) (meanMs float64, failed int) {
	sum, n := 0.0, 0
	for _, pr := range pings {
		if pr.Failed {
			failed++
			continue
		}
		sum += pr.RTTMs
		n++
	}
	if n == 0 {
		return 0, failed
	}
	return sum / float64(n), failed
}
