// Package webload generates the web workloads of the paper's application
// experiments (§4.2.2): a SURGE-style pool of 1000 pages with sizes between
// 2.8 KB and 3.2 MB (Barford & Crovella's heavy-tailed object model), and
// depth-1 models of the popular sites the paper fetches (cnn, microsoft,
// youtube, amazon).
package webload

import (
	"repro/internal/rng"
)

// Page is one downloadable web object.
type Page struct {
	ID        int
	SizeBytes int
}

// Pool is a fixed pool of pages requested in experiments.
type Pool struct {
	pages []Page
}

// SURGE pool bounds (paper: "a pool of 1000 web pages with sizes between
// 2.8 KBytes and 3.2 MBytes, generated using SURGE").
const (
	SURGEPoolSize  = 1000
	SURGEMinBytes  = 2800
	SURGEMaxBytes  = 3200000
	surgeTailAlpha = 1.1 // SURGE's heavy-tail exponent for object sizes
)

// NewSURGEPool generates a deterministic SURGE-like pool of n pages with
// bounded-Pareto sizes. The same seed always yields the same pool.
func NewSURGEPool(n int, seed uint64) *Pool {
	if n <= 0 {
		n = SURGEPoolSize
	}
	r := rng.NewNamed(seed, "surge-pool")
	pages := make([]Page, n)
	for i := range pages {
		pages[i] = Page{ID: i, SizeBytes: int(r.Pareto(surgeTailAlpha, SURGEMinBytes, SURGEMaxBytes))}
	}
	return &Pool{pages: pages}
}

// Pages returns all pages in ID order. Callers must not modify the result.
func (p *Pool) Pages() []Page { return p.pages }

// Site models a popular web page fetched to depth 1: a base HTML document
// plus embedded objects (Fig. 14).
type Site struct {
	Name    string
	Objects []Page // object 0 is the base document
}

// PopularSites returns deterministic depth-1 models of the four sites in
// Fig. 14, sized to early-2011 web pages: many small objects for portal
// pages (cnn, amazon), fewer medium objects for microsoft, heavier media
// objects for youtube.
func PopularSites(seed uint64) []Site {
	build := func(name string, base int, counts []int, lo, hi float64) Site {
		r := rng.NewNamed(seed, "site-"+name)
		objects := []Page{{ID: 0, SizeBytes: base}}
		id := 1
		for _, n := range counts {
			for i := 0; i < n; i++ {
				objects = append(objects, Page{ID: id, SizeBytes: int(r.Pareto(1.3, lo, hi))})
				id++
			}
		}
		return Site{Name: name, Objects: objects}
	}
	return []Site{
		// ~90 objects, mostly small images/scripts; ~1.6 MB total.
		build("cnn", 120000, []int{90}, 3000, 120000),
		// Corporate landing page: ~25 objects, ~700 KB.
		build("microsoft", 60000, []int{25}, 4000, 150000),
		// Video thumbnails and player assets: ~35 objects, ~2.2 MB.
		build("youtube", 90000, []int{35}, 8000, 400000),
		// Dense retail portal: ~110 objects, ~2.3 MB.
		build("amazon", 150000, []int{110}, 3000, 100000),
	}
}
