package device

import (
	"math"
	"strings"
	"testing"

	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/stats"
)

func baseConditions() radio.Conditions {
	return radio.Conditions{
		Network:      radio.NetB,
		CapacityKbps: 900,
		TCPKbps:      855,
		RTTMs:        113,
		JitterMs:     3,
		LossProb:     0.002,
	}
}

func TestReferenceIsIdentity(t *testing.T) {
	c := baseConditions()
	got := Reference().Apply(c)
	if got != c {
		t.Fatalf("reference profile changed conditions: %+v vs %+v", got, c)
	}
}

func TestPhoneProfileDegrades(t *testing.T) {
	c := baseConditions()
	got := Phone().Apply(c)
	if got.CapacityKbps >= c.CapacityKbps || got.TCPKbps >= c.TCPKbps {
		t.Fatal("phone must see less throughput")
	}
	if got.RTTMs <= c.RTTMs {
		t.Fatal("phone must see more latency")
	}
	if got.JitterMs <= c.JitterMs {
		t.Fatal("phone must see more jitter")
	}
	if got.LossProb <= c.LossProb {
		t.Fatal("phone must see more loss")
	}
	// Proportions: ~72% capacity.
	if r := got.CapacityKbps / c.CapacityKbps; math.Abs(r-0.72) > 1e-9 {
		t.Fatalf("capacity ratio %v", r)
	}
}

func TestRTTFloor(t *testing.T) {
	c := baseConditions()
	c.RTTMs = 2
	got := Profile{CapacityFactor: 1, JitterFactor: 1, RTTOffsetMs: -3}.Apply(c) // would go negative
	if got.RTTMs < 1 {
		t.Fatalf("RTT must be floored at 1 ms, got %v", got.RTTMs)
	}
}

func TestNormalizerZeroValueIsIdentity(t *testing.T) {
	var n *Normalizer
	if n.Factor(ClassPhone, "udp_kbps") != 1 {
		t.Fatal("nil normalizer must be identity")
	}
}

func TestNormalizerSetAndNormalize(t *testing.T) {
	n := NewNormalizer()
	n.SetFactor(ClassPhone, "udp_kbps", 1.39)
	if got := n.Normalize(720, ClassPhone, "udp_kbps"); math.Abs(got-720*1.39) > 1e-9 {
		t.Fatalf("normalize = %v", got)
	}
	// Unlearned metric/class untouched.
	if got := n.Normalize(100, ClassPhone, "rtt_ms"); got != 100 {
		t.Fatalf("unlearned metric scaled: %v", got)
	}
	if got := n.Normalize(100, ClassSBC, "udp_kbps"); got != 100 {
		t.Fatalf("unlearned class scaled: %v", got)
	}
}

func TestLearnRecoversProfileFactor(t *testing.T) {
	// Reference and phone observe the same channel; Learn should recover
	// ~1/0.72 for throughput.
	r := rng.New(3)
	ref := map[string][]float64{"udp_kbps": nil}
	obs := map[string][]float64{"udp_kbps": nil}
	for i := 0; i < 500; i++ {
		truth := 900 * (1 + 0.06*r.NormFloat64())
		ref["udp_kbps"] = append(ref["udp_kbps"], truth)
		obs["udp_kbps"] = append(obs["udp_kbps"], truth*0.72*(1+0.06*r.NormFloat64()))
	}
	n := NewNormalizer()
	learned := n.Learn(ClassPhone, ref, obs)
	if len(learned) != 1 || learned[0] != "udp_kbps" {
		t.Fatalf("learned = %v", learned)
	}
	f := n.Factor(ClassPhone, "udp_kbps")
	if math.Abs(f-1/0.72) > 0.06 {
		t.Fatalf("factor %v, want ~%v", f, 1/0.72)
	}
	// Normalized phone observations should now match the reference mean.
	var normalized []float64
	for _, v := range obs["udp_kbps"] {
		normalized = append(normalized, n.Normalize(v, ClassPhone, "udp_kbps"))
	}
	gap := math.Abs(stats.Mean(normalized)-stats.Mean(ref["udp_kbps"])) / stats.Mean(ref["udp_kbps"])
	if gap > 0.02 {
		t.Fatalf("normalized mean still %.1f%% off", gap*100)
	}
}

func TestLearnSkipsThinData(t *testing.T) {
	n := NewNormalizer()
	learned := n.Learn(ClassPhone,
		map[string][]float64{"udp_kbps": {1, 2, 3}},
		map[string][]float64{"udp_kbps": {1, 2, 3}})
	if len(learned) != 0 {
		t.Fatal("3 samples must not be enough to learn")
	}
	// Zero-mean observation guarded.
	zeros := make([]float64, 20)
	refs := make([]float64, 20)
	for i := range refs {
		refs[i] = 5
	}
	learned = n.Learn(ClassPhone,
		map[string][]float64{"loss_rate": refs},
		map[string][]float64{"loss_rate": zeros})
	if len(learned) != 0 {
		t.Fatal("zero-mean observations must not produce a factor")
	}
}

func TestNormalizerString(t *testing.T) {
	n := NewNormalizer()
	n.SetFactor(ClassPhone, "udp_kbps", 1.39)
	n.SetFactor(ClassSBC, "rtt_ms", 0.97)
	s := n.String()
	if !strings.Contains(s, "mobile-phone/udp_kbps=1.390") {
		t.Fatalf("string = %q", s)
	}
}

func TestNormalizerConcurrent(t *testing.T) {
	n := NewNormalizer()
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 500; i++ {
				n.SetFactor(ClassPhone, "udp_kbps", 1.0+float64(g)/10)
				_ = n.Factor(ClassPhone, "udp_kbps")
				_ = n.Normalize(100, ClassPhone, "udp_kbps")
			}
			done <- true
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
