package datasets

import (
	"os"
	"testing"

	"repro/internal/graph"
)

func TestRegistryComplete(t *testing.T) {
	if len(All()) != 10 {
		t.Fatalf("registry has %d datasets, want 10", len(All()))
	}
	if len(Small()) != 4 {
		t.Fatalf("Small() has %d datasets, want 4", len(Small()))
	}
	names := map[string]bool{}
	for _, d := range All() {
		if names[d.Name] {
			t.Errorf("duplicate dataset %q", d.Name)
		}
		names[d.Name] = true
	}
	for _, want := range []string{"brightkite", "epinion", "slashdot", "facebook", "gowalla", "wikipedia", "pokec", "flickr", "twitter", "sinaweibo"} {
		if !names[want] {
			t.Errorf("missing dataset %q", want)
		}
	}
}

func TestGetErrors(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Error("unknown dataset should error")
	}
	d, err := Get("brightkite")
	if err != nil || d.Name != "brightkite" {
		t.Errorf("Get(brightkite) = %v, %v", d, err)
	}
}

func TestSmallGraphsConnectedAndDeterministic(t *testing.T) {
	for _, d := range Small() {
		g := d.Graph()
		if lcc, _ := graph.LargestComponent(g); lcc.NumNodes() != g.NumNodes() {
			t.Errorf("%s LCC not connected", d.Name)
		}
		if g.NumNodes() < 1000 {
			t.Errorf("%s suspiciously small: %v", d.Name, g)
		}
		// Memoized: same pointer.
		if d.Graph() != g {
			t.Errorf("%s graph not memoized", d.Name)
		}
		// Deterministic rebuild.
		raw1, raw2 := d.Build(), d.Build()
		if raw1.NumEdges() != raw2.NumEdges() {
			t.Errorf("%s build not deterministic", d.Name)
		}
	}
}

func TestGroundTruth3(t *testing.T) {
	d, _ := Get("brightkite")
	c, err := d.GroundTruth(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 2 || c[0] <= 0 || c[1] <= 0 {
		t.Fatalf("3-node counts = %v", c)
	}
	conc, err := d.Concentration(3)
	if err != nil {
		t.Fatal(err)
	}
	if conc[0]+conc[1] < 0.999 || conc[0]+conc[1] > 1.001 {
		t.Errorf("concentration sums to %f", conc[0]+conc[1])
	}
}

func TestGroundTruthErrors(t *testing.T) {
	d, _ := Get("twitter")
	if _, err := d.GroundTruth(5); err == nil {
		t.Error("5-node ground truth for large dataset should error")
	}
	if _, err := d.GroundTruth(2); err == nil {
		t.Error("k=2 should error")
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	old := os.Getenv("REPRO_CACHE_DIR")
	os.Setenv("REPRO_CACHE_DIR", dir)
	defer os.Setenv("REPRO_CACHE_DIR", old)

	saveCache("unit-test", []int64{1, 2, 3})
	got, ok := loadCache("unit-test")
	if !ok || len(got) != 3 || got[2] != 3 {
		t.Fatalf("cache round trip failed: %v %v", got, ok)
	}
	if _, ok := loadCache("missing"); ok {
		t.Error("missing key should not load")
	}
}
