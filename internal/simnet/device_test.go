package simnet

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/stats"
)

func TestPhoneProberSeesDegradedChannel(t *testing.T) {
	f := testField()
	loc := cleanSpot(f)
	laptop := NewProber(f, 21)
	phone := NewProberForDevice(f, device.Phone(), 21)

	var lv, pv []float64
	for i := 0; i < 100; i++ {
		lv = append(lv, laptop.UDPDownload(loc, at, 100, 1200).ThroughputKbps())
		pv = append(pv, phone.UDPDownload(loc, at, 100, 1200).ThroughputKbps())
	}
	lm, pm := stats.Mean(lv), stats.Mean(pv)
	ratio := pm / lm
	if ratio < 0.65 || ratio > 0.80 {
		t.Fatalf("phone/laptop throughput ratio %.3f, want ~0.72", ratio)
	}

	lp, _ := meanRTT(laptop.PingTrain(loc, at, 200, time.Second))
	pp, _ := meanRTT(phone.PingTrain(loc, at, 200, time.Second))
	if pp <= lp {
		t.Fatalf("phone RTT %.1f should exceed laptop %.1f", pp, lp)
	}
}

func TestDeviceProberDeterministicPerClass(t *testing.T) {
	f := testField()
	loc := cleanSpot(f)
	a := NewProberForDevice(f, device.Phone(), 5).UDPDownload(loc, at, 50, 1200)
	b := NewProberForDevice(f, device.Phone(), 5).UDPDownload(loc, at, 50, 1200)
	if a.ThroughputKbps() != b.ThroughputKbps() {
		t.Fatal("same class+seed must reproduce")
	}
	c := NewProberForDevice(f, device.Reference(), 5).UDPDownload(loc, at, 50, 1200)
	if a.ThroughputKbps() == c.ThroughputKbps() {
		t.Fatal("different classes must have independent noise streams")
	}
}

func TestDefaultProberIsReference(t *testing.T) {
	f := testField()
	if NewProber(f, 1).profile.Class != device.ClassLaptop {
		t.Fatal("NewProber must use the reference class")
	}
}

func TestWarmTransferSkipsHandshake(t *testing.T) {
	f := testField()
	p := NewProber(f, 22)
	loc := cleanSpot(f)
	var cold, warm time.Duration
	for i := 0; i < 50; i++ {
		cold += p.tcpTransfer(loc, at, 20<<10, false).Duration()
		warm += p.HTTPGetPersistent(loc, at, 20<<10)
	}
	if warm >= cold {
		t.Fatalf("warm fetches (%v) must be faster than cold (%v)", warm, cold)
	}
	// The saving should be at least the handshake RTT plus most of the
	// slow-start tax — a factor of ~1.5+ for a 20 KB page.
	if float64(cold)/float64(warm) < 1.3 {
		t.Fatalf("warm speedup only %.2fx", float64(cold)/float64(warm))
	}
}

func TestWarmTransferSameBytes(t *testing.T) {
	f := testField()
	p := NewProber(f, 23)
	loc := cleanSpot(f)
	fr := p.tcpTransfer(loc, at, 100000, true)
	got := 0
	for _, pk := range fr.Packets {
		got += pk.SizeBytes
	}
	if got != 100000 {
		t.Fatalf("warm transfer delivered %d bytes", got)
	}
	ratio := fr.ThroughputKbps() / f.At(loc, at).TCPKbps
	if ratio < 0.5 || ratio > 1.5 {
		t.Fatalf("warm goodput ratio %.2f implausible", ratio)
	}
}

func TestPhoneFlowsStillMeasureConsistently(t *testing.T) {
	// The measurement pipeline must be class-agnostic: a phone's samples
	// track the phone's (degraded) ground truth just as tightly.
	f := testField()
	loc := cleanSpot(f)
	phone := NewProberForDevice(f, device.Phone(), 24)
	truth := device.Phone().Apply(f.At(loc, at)).CapacityKbps
	var vals []float64
	for i := 0; i < 150; i++ {
		vals = append(vals, phone.UDPDownload(loc, at, 100, 1200).ThroughputKbps())
	}
	m := stats.Mean(vals)
	if m < truth*0.95 || m > truth*1.05 {
		t.Fatalf("phone samples mean %.0f vs phone truth %.0f", m, truth)
	}
}
