package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/gen"
)

// TestCheckpointStatesGolden pins, byte for byte, every state a checkpointed
// run hands out: the SHA-256 over the Encode() of each state, in target
// order, for every walker count, method and checkpoint spacing of the grid,
// at GOMAXPROCS 1 and 2 alike. However the ensemble schedules its walkers
// between checkpoints, a state at target t is the walkers' positions at
// their quotas of t, and this hash is what says so.
func TestCheckpointStatesGolden(t *testing.T) {
	const n = 600
	client := access.NewGraphClient(gen.HolmeKim(400, 3, 0.5, 11))
	methods := []struct {
		name string
		cfg  MultiConfig
	}{
		{"k4_d2_css", MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Seed: 3}},
		{"s345_d2_css", MultiConfig{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Seed: 4}},
		{"k5_d3_nb", MultiConfig{Sizes: []int{5}, D: 3, NB: true, Seed: 5}},
	}
	want := map[string]string{
		"k4_d2_css/w1/every1":     "fcff08aa12285a84a87b310689a936d3985da5375cafae6d5410fa900ee453e4",
		"k4_d2_css/w1/every7":     "3b25934fb377e860623d44b213b6a9b98ee6ad3e646be1da873123552aa3a72f",
		"k4_d2_css/w1/every250":   "0cb9ebd6d8840550c18916649c3d241dc9411fede291afaf884add3b52662086",
		"k4_d2_css/w2/every1":     "5f4b41f5a2212ca13d73f04e9a0f6c74ab7d4e6de2010c70967140e53934f001",
		"k4_d2_css/w2/every7":     "4ada29e8e786d6524f877fce7605c62d7fe512566bfdbae1315c865bdeea8481",
		"k4_d2_css/w2/every250":   "93b964d9edb800efc2a0d45ae05d64054043aefbd6f80a8b8ab748ca49d433a3",
		"k4_d2_css/w3/every1":     "139e6dcc8cf330da704a9df304d420eaf24be239cc0378ac99cfff55949ac787",
		"k4_d2_css/w3/every7":     "36c4393fa9e926b9b38c326bf2a2a9a7c2510531ee1d32365c421a4b255cf226",
		"k4_d2_css/w3/every250":   "37d5131806e3b036df8885d6188e2878bc61f3c2d0f753e2aed2f112ed1e65c4",
		"k4_d2_css/w8/every1":     "3ef62d90b8a3db813146bb69664912fb95b8be7e06a433d94dde9fa94e8d95d3",
		"k4_d2_css/w8/every7":     "16d16dd605c6f6460f71254cb4a8451d348159e19a569c2c13fb43bdaeec3095",
		"k4_d2_css/w8/every250":   "931bb98b9ee196f1afdd82f427e4b9abfd101f8f245dbd78f887581d4ccc9925",
		"s345_d2_css/w1/every1":   "c65cd7870c0d496b26313dbe3eee4d47c5e0f6c3bc8133b8906102f7512db4f6",
		"s345_d2_css/w1/every7":   "09416eb2021baf9015452acb110afd2096f15822067e17d6180da460edcc1b00",
		"s345_d2_css/w1/every250": "7a76c4c76f0dd6a39ffef391cf73f95d10a783f0620f73d7d5bd653907fc0022",
		"s345_d2_css/w2/every1":   "bff3b87c4d422b1662bdf47a0b4daebaf01b4df940d20c6e95951fae08206531",
		"s345_d2_css/w2/every7":   "0309ec09cdfa1c686d355d5fe4aaec65270e540ab566d7cf9eca51a44ca57793",
		"s345_d2_css/w2/every250": "02bb47c8fe922cf5459216a755e7a11b013496fec523ad1c024cad475ccce2cb",
		"s345_d2_css/w3/every1":   "86a9a3e316e9b2b1e4f4f9f876df6d0a8141f4fdc2f68d9da91f5383534022d2",
		"s345_d2_css/w3/every7":   "77e4061d6de47e5e1e82b259289c0ad3ab721787b8c50444587fd29a7af7ebd6",
		"s345_d2_css/w3/every250": "5968933898354a9aabd8cfd92eeda01010af97a9872cc8d0503785692b6bccfc",
		"s345_d2_css/w8/every1":   "d521dd77a7d101e5f2ef1767909dfd110c9bc7965f552461ef2732ed9f70de03",
		"s345_d2_css/w8/every7":   "119f46712ecf005983128561174660f05d0776db31a6e6a5fb425dffa1f3a597",
		"s345_d2_css/w8/every250": "662dd3b03f6804ce9b40f74c7f1a795fe0dd46205a3994869358e84715899c03",
		"k5_d3_nb/w1/every1":      "5e54640c8f24294a47666cdf87b94a9dd50521ff9df4f648b7da8a1fec6fbc6a",
		"k5_d3_nb/w1/every7":      "c3e6f6859d168cf208e766e421963bb0b52101e2e468408f575fc1b3678d98fd",
		"k5_d3_nb/w1/every250":    "13c626ffdca0dba2a3c8a43ed36f28129f2e08216e5c06fe04098a04e2649d86",
		"k5_d3_nb/w2/every1":      "6f992e97bd1b0237c0d1edbfe613b8b4a507610a22e8bfbee9579eac8d7629da",
		"k5_d3_nb/w2/every7":      "56d0c471a118e1c90ac2029a5da8b166f176eb7ca122161a89e144be74001c97",
		"k5_d3_nb/w2/every250":    "8e5789ffe84845a2556428f1e9a771dc44ec769687c8be4c59002503a3a9ec68",
		"k5_d3_nb/w3/every1":      "5734289317431fea791973835fca611bed40ecac9db291e8bf353dab614c990d",
		"k5_d3_nb/w3/every7":      "d93298847bb97f841126dda9878428c3250ec7637bfed3425ce84a8d9aa2a935",
		"k5_d3_nb/w3/every250":    "a8b5b1b15e7c44c224feefd0f3b0f41a077c82b579e78678a300d089d7203fe4",
		"k5_d3_nb/w8/every1":      "983c915d502fdf90be60867de5a6ae08d66cfea6ef0c39126acd0e0958348a8a",
		"k5_d3_nb/w8/every7":      "9e7eb8bf1e7da93f1b731e74f7b8cb736ef22bc267a0b9d58e4c4975ec4237f4",
		"k5_d3_nb/w8/every250":    "3ea206e5ae18c737aa26a789c1a9df0df641346edff92bc027a5db88bc469dbe",
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		for _, m := range methods {
			for _, w := range []int{1, 2, 3, 8} {
				for _, every := range []int{1, 7, 250} {
					name := fmt.Sprintf("%s/w%d/every%d", m.name, w, every)
					cfg := m.cfg
					cfg.Walkers = w
					est, err := NewMultiEstimator(client, cfg)
					if err != nil {
						t.Fatal(err)
					}
					states := checkpointStates(t, est, n, every)
					if got := len(states); got != (n+every-1)/every {
						t.Errorf("%s: %d states handed out, want %d", name, got, (n+every-1)/every)
					}
					h := sha256.New()
					for _, st := range states {
						h.Write(st.Encode())
					}
					got := hex.EncodeToString(h.Sum(nil))
					if got != want[name] {
						t.Errorf("%s at GOMAXPROCS %d: states hash %s, want %s", name, procs, got, want[name])
					}
				}
			}
		}
	}
}
