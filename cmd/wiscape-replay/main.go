// Command wiscape-replay feeds a recorded trace (CSV or JSONL, as written
// by wiscape-sim) through a fresh WiScape controller and reports what the
// framework would have concluded: per-zone records, epochs, and the alerts
// the 2-sigma rule would have raised. Optionally writes the resulting
// controller state as a snapshot JSON file for inspection (no command
// reads it back), or — with -data — replays the whole campaign into a
// durable store directory (WAL + final checkpoint), the path a coordinator
// cold-starts from a prepared dataset with.
//
// Usage:
//
//	wiscape-sim -campaign standalone -days 2 -out trace.csv
//	wiscape-replay -in trace.csv [-snapshot state.json] [-top 15]
//	wiscape-replay -in trace.csv -data /var/lib/wiscape
//	wiscape-coordinator -data /var/lib/wiscape
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	in := flag.String("in", "-", "input trace (CSV or JSONL; - for stdin)")
	format := flag.String("format", "", "input format: csv | jsonl (default: by file extension)")
	top := flag.Int("top", 15, "zones to print, by sample count")
	snapshotPath := flag.String("snapshot", "", "write the controller snapshot JSON here")
	dataDir := flag.String("data", "", "replay into this durable store directory (WAL + final checkpoint)")
	dataCkpt := flag.Bool("data-checkpoint", true, "write a final checkpoint into -data (false keeps only the WAL, for exact cold-start replay)")
	zoneRadius := flag.Float64("zone-radius", 250, "zone radius in meters")
	flag.Parse()

	r := os.Stdin
	name := "stdin"
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatalf("open: %v", err)
		}
		//lint:ignore errdrop read-only input; a close error cannot lose data
		defer f.Close()
		r = f
		name = *in
	}
	if *format == "" {
		if strings.HasSuffix(*in, ".jsonl") {
			*format = "jsonl"
		} else {
			*format = "csv"
		}
	}

	var (
		ds  *trace.Dataset
		err error
	)
	switch *format {
	case "csv":
		ds, err = trace.ReadCSV(name, r)
	case "jsonl":
		ds, err = trace.ReadJSONL(name, r)
	default:
		log.Fatalf("unknown format %q", *format)
	}
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	fmt.Println(ds.Summary())

	cfg := core.DefaultConfig()
	cfg.ZoneRadiusM = *zoneRadius
	ctrl := core.NewController(cfg, geo.GridOrigin())
	t0 := time.Now()
	if *dataDir != "" {
		// Mirror the live coordinator's ingest path: journal each sample to
		// the WAL before the controller sees it, so the directory is a
		// faithful cold-start image of this replay.
		st, err := store.Open(*dataDir, store.Options{})
		if err != nil {
			log.Fatalf("open data dir: %v", err)
		}
		sorted := &trace.Dataset{Name: ds.Name, Samples: append([]trace.Sample(nil), ds.Samples...)}
		sorted.SortByTime()
		for _, s := range sorted.Samples {
			if _, err := st.Append(s); err != nil {
				log.Fatalf("journal: %v", err)
			}
			ctrl.Ingest(s)
		}
		if *dataCkpt {
			last := time.Now()
			if sorted.Len() > 0 {
				last = sorted.Samples[sorted.Len()-1].Time
			}
			if err := st.CheckpointAt(st.Tip(), ctrl.Snapshot(last)); err != nil {
				log.Fatalf("checkpoint: %v", err)
			}
		}
		if err := st.Close(); err != nil {
			log.Fatalf("close data dir: %v", err)
		}
		fmt.Printf("journaled %d samples into %s (final checkpoint: %v)\n",
			sorted.Len(), *dataDir, *dataCkpt)
	} else {
		ctrl.IngestDataset(ds)
	}
	fmt.Printf("replayed in %v\n\n", time.Since(t0).Round(time.Millisecond))

	keys := ctrl.Keys()
	sort.Slice(keys, func(i, j int) bool {
		return ctrl.SampleCount(keys[i]) > ctrl.SampleCount(keys[j])
	})
	n := *top
	if n > len(keys) {
		n = len(keys)
	}
	fmt.Printf("top %d zone statistics by sample volume:\n", n)
	for _, k := range keys[:n] {
		rec, ok := ctrl.Estimate(k)
		if !ok {
			continue
		}
		fmt.Printf("  zone %-9s %-5s %-9s: %8.1f (±%.1f) n=%-6d epoch=%v\n",
			k.Zone, k.Net, k.Metric, rec.MeanValue, rec.StdDev, ctrl.SampleCount(k), ctrl.EpochOf(k))
	}

	alerts := ctrl.Alerts()
	fmt.Printf("\n%d alert(s) during replay", len(alerts))
	if len(alerts) > 0 {
		fmt.Println(":")
		for i, a := range alerts {
			if i >= 10 {
				fmt.Printf("  ... and %d more\n", len(alerts)-10)
				break
			}
			fmt.Printf("  %s zone %-9s %s %s: %.1f -> %.1f\n",
				a.At.Format(time.RFC3339), a.Key.Zone, a.Key.Net, a.Key.Metric,
				a.Previous.MeanValue, a.Current.MeanValue)
		}
	} else {
		fmt.Println()
	}

	if *snapshotPath != "" {
		f, err := os.Create(*snapshotPath)
		if err != nil {
			log.Fatalf("create snapshot: %v", err)
		}
		last := time.Now()
		if ds.Len() > 0 {
			last = ds.Samples[ds.Len()-1].Time
		}
		if err := core.WriteSnapshot(f, ctrl.Snapshot(last)); err != nil {
			log.Fatalf("write snapshot: %v", err)
		}
		// An unchecked close here could report "snapshot written" for a
		// file the kernel never accepted — the exact failure errdrop exists
		// to catch.
		if err := f.Close(); err != nil {
			log.Fatalf("close snapshot: %v", err)
		}
		fmt.Printf("snapshot written to %s\n", *snapshotPath)
	}
}
