package webload

import "testing"

func TestSURGEPoolProperties(t *testing.T) {
	p := NewSURGEPool(SURGEPoolSize, 1)
	if len(p.pages) != 1000 {
		t.Fatalf("pool size %d", len(p.pages))
	}
	small, large := 0, 0
	for i := 0; i < len(p.pages); i++ {
		pg := p.pages[i]
		if pg.ID != i {
			t.Fatalf("page id %d at index %d", pg.ID, i)
		}
		if pg.SizeBytes < SURGEMinBytes || pg.SizeBytes > SURGEMaxBytes {
			t.Fatalf("page size %d outside [2.8KB, 3.2MB]", pg.SizeBytes)
		}
		if pg.SizeBytes < 50000 {
			small++
		}
		if pg.SizeBytes > 500000 {
			large++
		}
	}
	// Heavy tail: mostly small pages, a few big ones.
	if small < 600 {
		t.Fatalf("only %d/1000 pages below 50 KB; SURGE is mostly small objects", small)
	}
	if large == 0 {
		t.Fatal("no pages above 500 KB; tail missing")
	}
}

func TestSURGEPoolDeterministic(t *testing.T) {
	a := NewSURGEPool(100, 7)
	b := NewSURGEPool(100, 7)
	for i := 0; i < 100; i++ {
		if a.pages[i] != b.pages[i] {
			t.Fatal("pool not deterministic")
		}
	}
	c := NewSURGEPool(100, 8)
	same := 0
	for i := 0; i < 100; i++ {
		if a.pages[i] == c.pages[i] {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds should give different pools")
	}
}

func TestSURGEPoolDefaultSize(t *testing.T) {
	p := NewSURGEPool(0, 1)
	if len(p.pages) != SURGEPoolSize {
		t.Fatalf("default pool size %d", len(p.pages))
	}
}

func TestTotalBytes(t *testing.T) {
	p := NewSURGEPool(1000, 1)
	total := totalBytes(p.pages)
	// Bounded Pareto alpha=1.1 on [2.8K, 3.2M]: mean is ~25-60 KB, so 1000
	// pages land in the tens of MB.
	if total < 10<<20 || total > 200<<20 {
		t.Fatalf("pool total %d bytes implausible", total)
	}
}

func TestPopularSites(t *testing.T) {
	sites := PopularSites(1)
	if len(sites) != 4 {
		t.Fatalf("want 4 sites, got %d", len(sites))
	}
	names := map[string]Site{}
	for _, s := range sites {
		names[s.Name] = s
		if len(s.Objects) < 10 {
			t.Fatalf("%s has only %d objects", s.Name, len(s.Objects))
		}
		if totalBytes(s.Objects) < 100<<10 || totalBytes(s.Objects) > 20<<20 {
			t.Fatalf("%s total %d bytes implausible", s.Name, totalBytes(s.Objects))
		}
	}
	for _, want := range []string{"cnn", "microsoft", "youtube", "amazon"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("missing site %s", want)
		}
	}
	// Microsoft should be the lightest (Fig. 14 shows it completing
	// fastest).
	if totalBytes(names["microsoft"].Objects) >= totalBytes(names["amazon"].Objects) {
		t.Fatal("microsoft should be lighter than amazon")
	}
	// Determinism.
	again := PopularSites(1)
	for i := range sites {
		if totalBytes(sites[i].Objects) != totalBytes(again[i].Objects) {
			t.Fatal("sites not deterministic")
		}
	}
}

// totalBytes is the transfer size of pages.
func totalBytes(pages []Page) int {
	t := 0
	for _, pg := range pages {
		t += pg.SizeBytes
	}
	return t
}
