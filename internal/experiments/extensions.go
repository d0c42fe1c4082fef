package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/agent"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The experiments in this file go beyond the paper's evaluation into the
// extensions its §3.3 and §6 explicitly defer: device heterogeneity with
// normalization, and the client-side overhead budget that motivates the
// whole design.

// Ext01DeviceHeterogeneity demonstrates the §3.3 future-work item: phone
// and laptop measurements of the same zone do not compose directly (their
// NKLD never converges), but after learning per-class normalization factors
// from a co-located calibration, the mixed estimate matches ground truth.
func Ext01DeviceHeterogeneity(o Options) Report {
	o = o.fill()
	r := Report{ID: "ext01", Title: "Device heterogeneity: phones vs laptops, raw and normalized (extension of §3.3)"}

	field := radio.NewPresetField(radio.NetB, radio.RegionWI, o.Seed, geo.Madison().Center())
	site := representativeSites(o, radio.RegionWI, 1)[0]
	at := campaignStart.Add(24 * time.Hour)
	truth := field.At(site, at).CapacityKbps

	laptop := simnet.NewProber(field, o.Seed+1)
	phone := simnet.NewProberForDevice(field, device.Phone(), o.Seed+2)

	const n = 400
	var laptopVals, phoneVals []float64
	for i := 0; i < n; i++ {
		ts := at.Add(time.Duration(i) * 30 * time.Second)
		laptopVals = append(laptopVals, laptop.UDPDownload(site, ts, 100, 1200).ThroughputKbps())
		phoneVals = append(phoneVals, phone.UDPDownload(site, ts, 100, 1200).ThroughputKbps())
	}

	rawNKLD := stats.NKLDFromSamples(phoneVals, laptopVals, stats.DefaultNKLDBins)
	r.AddRow("raw cross-class NKLD", "composition across classes 'may not always work well' (§3.3)",
		fmt.Sprintf("%.2f with %d samples each (threshold %.1f — never composes)", rawNKLD, n, stats.NKLDSimilarityThreshold))

	// Calibration: learn the factor from the first half of the data
	// (co-located laptop + phone), then normalize the second half.
	norm := device.NewNormalizer()
	norm.Learn(device.ClassPhone,
		map[string][]float64{string(trace.MetricUDPKbps): laptopVals[:n/2]},
		map[string][]float64{string(trace.MetricUDPKbps): phoneVals[:n/2]})
	var normalized []float64
	for _, v := range phoneVals[n/2:] {
		normalized = append(normalized, norm.Normalize(v, device.ClassPhone, string(trace.MetricUDPKbps)))
	}
	normNKLD := stats.NKLDFromSamples(normalized, laptopVals[n/2:], stats.DefaultNKLDBins)
	r.AddRow("normalized cross-class NKLD", "normalization 'a significant effort unto itself' — proposed, not built",
		fmt.Sprintf("%.2f after learning factor %.2f (composes: %v)",
			normNKLD, norm.Factor(device.ClassPhone, string(trace.MetricUDPKbps)), normNKLD <= 3*stats.NKLDSimilarityThreshold))

	// End-to-end: a mixed fleet through the controller.
	mixedErr := func(normalize bool) float64 {
		ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
		for i := 0; i < n/2; i++ {
			ts := at.Add(time.Duration(n+i) * 30 * time.Second)
			s := trace.Sample{Time: ts, Loc: site, Network: radio.NetB, Metric: trace.MetricUDPKbps, ClientID: "mix"}
			if i%2 == 0 {
				s.Value = phone.UDPDownload(site, ts, 100, 1200).ThroughputKbps()
				s.Device = string(device.ClassPhone)
			} else {
				s.Value = laptop.UDPDownload(site, ts, 100, 1200).ThroughputKbps()
				s.Device = string(device.ClassLaptop)
			}
			if normalize {
				s.Value = norm.Normalize(s.Value, device.Class(s.Device), string(s.Metric))
			}
			ctrl.Ingest(s)
		}
		rec, ok := ctrl.EstimateAt(site, radio.NetB, trace.MetricUDPKbps)
		if !ok {
			return 1
		}
		e := (rec.MeanValue - truth) / truth
		if e < 0 {
			e = -e
		}
		return e
	}
	rawErr := mixedErr(false)
	normErr := mixedErr(true)
	r.AddRow("mixed-fleet estimate error", "per-class monitoring sidesteps the problem",
		fmt.Sprintf("raw %.1f%% -> normalized %.1f%% vs ground truth", rawErr*100, normErr*100))
	return r
}

// Ext02ClientOverhead quantifies the design's headline property — "a low
// overhead on the clients" — by running the real coordinator/agent protocol
// and comparing each client's measurement budget under WiScape scheduling
// against a continuously measuring client.
func Ext02ClientOverhead(o Options) Report {
	o = o.fill()
	r := Report{ID: "ext02", Title: "Client overhead: WiScape scheduling vs continuous measurement"}

	env := radio.NewEnvironment([]radio.NetworkID{radio.NetB}, radio.RegionWI, o.Seed, geo.Madison().Center())
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	srv, err := coordinator.Serve(ctrl, "127.0.0.1:0", coordinator.Options{
		Networks:     []radio.NetworkID{radio.NetB},
		Metrics:      []trace.Metric{trace.MetricUDPKbps},
		TaskInterval: 5 * time.Minute,
		Seed:         o.Seed,
	})
	if err != nil {
		r.AddRow("setup", "", fmt.Sprintf("coordinator failed: %v", err))
		return r
	}
	//lint:ignore errdrop no DataDir: Close has nothing durable to flush
	defer srv.Close()

	// Thirty clients share one zone for a simulated day, reporting every
	// five minutes — the dense-urban case the paper argues makes the
	// measurement volume easy to obtain: the ~100-samples-per-epoch budget
	// is spread across the whole crowd.
	site := representativeSites(o, radio.RegionWI, 1)[0]
	day := 24 * time.Hour
	var totalBytes, totalSamples int64
	var totalEnergy float64
	clients := 30
	for i := 0; i < clients; i++ {
		a := &agent.Agent{
			ID:          fmt.Sprintf("overhead-%d", i),
			DeviceClass: string(device.ClassLaptop),
			Track:       mobility.Static{P: site},
			Env:         env,
			Networks:    []radio.NetworkID{radio.NetB},
			Seed:        o.Seed + uint64(i),
		}
		st, err := a.Run(srv.Addr(), campaignStart, day, 5*time.Minute)
		if err != nil {
			r.AddRow("agent", "", fmt.Sprintf("failed: %v", err))
			return r
		}
		totalBytes += st.MeasurementBytes
		totalSamples += int64(st.SamplesSent)
		totalEnergy += st.EnergyJoules()
	}

	// The continuous baseline measures every minute around the clock.
	continuousBytes := int64(24*60) * 100 * 1200 // one 100x1200B burst per minute
	perClientMB := float64(totalBytes) / float64(clients) / (1 << 20)
	r.AddRow("per-client measurement traffic", "low overhead: ~100 samples per zone-epoch shared across clients",
		fmt.Sprintf("%.1f MB/day with WiScape vs %.1f MB/day measuring continuously (%.0fx less)",
			perClientMB, float64(continuousBytes)/(1<<20), float64(continuousBytes)/(float64(totalBytes)/float64(clients))))
	r.AddRow("per-client energy", "battery drain is the binding constraint on client assistance",
		fmt.Sprintf("%.0f J/day (~%.2f%% of a 20 kJ phone battery)",
			totalEnergy/float64(clients), totalEnergy/float64(clients)/20000*100))
	r.AddRow("fleet yield", "enough samples for sound zone estimates",
		fmt.Sprintf("%d samples/day into the zone (budget %d per epoch)", totalSamples, ctrl.Config().DefaultSamplesPerEpoch))
	// The estimate must still be sound.
	rec, ok := ctrl.EstimateAt(site, radio.NetB, trace.MetricUDPKbps)
	if ok {
		truth := env.Field(radio.NetB).At(site, campaignStart.Add(12*time.Hour)).CapacityKbps
		r.AddRow("estimate quality", "within a few percent of ground truth",
			fmt.Sprintf("%.0f Kbps vs %.0f Kbps truth (%.1f%% off)", rec.MeanValue, truth,
				100*math.Abs(rec.MeanValue-truth)/truth))
	}
	return r
}
