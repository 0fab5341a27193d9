package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/gen"
	"repro/internal/walk"
)

// TestCheckpointStatesGolden pins the content of every state a checkpointed
// run hands out: the SHA-256 over stateDigest of each state, in target
// order, for every walker count, method and checkpoint spacing of the grid,
// at GOMAXPROCS 1 and 2 alike. However the ensemble schedules its walkers
// between checkpoints, a state at target t is the walkers' positions at
// their quotas of t, and this hash is what says so. It hashes the fields,
// not Encode(), so a change of the blob format leaves the table alone and a
// change of what the walkers hand out does not hide behind one.
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
		"k4_d2_css/w1/every1":     "8d24bc169d61610cf9ee8cc753be7099e71c69a4c6ef8c0bd6834b0530921818",
		"k4_d2_css/w1/every7":     "d2369d671a5b4df14e480706cc1c3efa0792057379ba6931fcb37ca4edec325c",
		"k4_d2_css/w1/every250":   "844b19050717a32868d43207d587704aca390108811307eb571a1aade85dfdce",
		"k4_d2_css/w2/every1":     "4fb1c4b1900930ed2898bcfa6d68118b782416c54bedda61d6527152dd322e6c",
		"k4_d2_css/w2/every7":     "6d19a651bf09471275b48b7ef4617c539266109177acca1d8f479cf026725da4",
		"k4_d2_css/w2/every250":   "aa3267a27e9aa32eb0d4f4deb1fb8a57f992b362c64ee110a17e833417943811",
		"k4_d2_css/w3/every1":     "da369c5c4d2efc65f64966cbfb811486131cec2282beb0d16ab8559c60b13b38",
		"k4_d2_css/w3/every7":     "0d98d8d3dae15eb30f5a1fb6decb1c5ba69e8171514aa2925eff21eade2ac0be",
		"k4_d2_css/w3/every250":   "8d2a16520d6cbc9f0c4cf7b93bd7ecb20f9f9c94046ce7f5a063bd0e511c70cc",
		"k4_d2_css/w8/every1":     "d10e66e739dc233216e7d18f15e965f5b193c2ccf19c1b102047cded050c7728",
		"k4_d2_css/w8/every7":     "5c638c01b2cc881fbd1d7311cff1097e82c3f9815ab17f424f653e69d4af32c2",
		"k4_d2_css/w8/every250":   "11dd15e0872aebfbf350c49e5de40012171b482ff54a860c0faafa8c5d45c997",
		"s345_d2_css/w1/every1":   "549ea1ac39f5c6ef47527476331a170d0573c3aad8d5c1c1b8d788af8ac2c35f",
		"s345_d2_css/w1/every7":   "990ec930ce6c9396d5d6fb8eb6ec8e5daf9ab571a4167bde7f5ade078ec9e5be",
		"s345_d2_css/w1/every250": "7c93600e3950073ca7098cb7dd3bc584834116871d482c2ee31060797f27601c",
		"s345_d2_css/w2/every1":   "4109c4788468eb2cec1e50af4319058166e147af48f11764ba9800bf026cf322",
		"s345_d2_css/w2/every7":   "fb0dbb07dacfe268c1e916b023591adda1bd21517894da237ddbbf0951fd9e39",
		"s345_d2_css/w2/every250": "c2cb1c2f95c12c1a9b0bc98bf8832bc83b5ebc89f3707075501a48b58bd94f5d",
		"s345_d2_css/w3/every1":   "b484f7a0ac3ac428aa6ce89defc74784d6a27810b4e8827d4f29590ab26ee6ff",
		"s345_d2_css/w3/every7":   "b8e16de7cc44632e8d3b2f5f2696048e99f4675857027ca27b56b0ce6f24f08d",
		"s345_d2_css/w3/every250": "36b1db14a6f1edab63cf3d141659be647ef8f228023f78adc61b403145906958",
		"s345_d2_css/w8/every1":   "d45df85612d8c0610b12ba5107ad504520201b8121ee2a039327273ff9c5dee0",
		"s345_d2_css/w8/every7":   "d151bacad5e13fbf8f43065816fa5e4f233ddd5ddc89c6e2480592e5287eb3ad",
		"s345_d2_css/w8/every250": "4ce115c9d794cf65d499646f316af05f1bb299c0ae3a91d11defea352c8e67e3",
		"k5_d3_nb/w1/every1":      "cc7a2acf85f355883e9c2df06f2df73d569d60eeee8bfe9df4df2ce7fd560de6",
		"k5_d3_nb/w1/every7":      "c0a891204f749ca4dea57a20d924b88f2a6d03cfe78a04bd29a7370505e674b6",
		"k5_d3_nb/w1/every250":    "d508c782a3352ebaa41b95e918d29a623910eb0d263e0e9b96809581c4f652bc",
		"k5_d3_nb/w2/every1":      "4d22b476f75cda05c286fc80fdbb840da16326c74794ee2e335a74fda01e05e8",
		"k5_d3_nb/w2/every7":      "85a85e7601bab0cd5099b5a10e277b3d08075ab50b433de94100068ecea6df40",
		"k5_d3_nb/w2/every250":    "ea80f19c7079c2d8781886e685cd3def5389c5379b7eda42c3b80df0e133b0df",
		"k5_d3_nb/w3/every1":      "5efa9af00bad50d996d8cb038b1e3e84c04f0bc2b6bb7e5fa013a5fc49493147",
		"k5_d3_nb/w3/every7":      "4dac35cd95b6d977f0de4db4e5694c11635e60b297e71c04a99bbf79add82942",
		"k5_d3_nb/w3/every250":    "d8374b37d148c8ab3c8a29ca13f1d442f8188e4e94cf21b0eb34961f044d9bdc",
		"k5_d3_nb/w8/every1":      "50621092127d744ccfd85461c2e626f83d2eeab113f40186960ff27c575d85e6",
		"k5_d3_nb/w8/every7":      "ec324f63811540059078bacf657b8c85302d15157d8ac03f40bd3addb9f73f49",
		"k5_d3_nb/w8/every250":    "3d4173f9a818008e283ffbdc7722d849125d41641413a27a1dcb8871692456a9",
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
						stateDigest(h, st)
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

// stateDigest writes every field of st to h in a fixed order, independent of
// any blob format: each integer, flag and length as 8 little-endian bytes,
// each float64 as its IEEE-754 bits, each walk state as its node count and
// nodes.
func stateDigest(h hash.Hash, st *EnsembleState) {
	var buf []byte
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	i := func(v int64) { u(uint64(v)) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	state := func(s walk.State) {
		u(uint64(s.Len()))
		for j := range s.Len() {
			i(int64(s.Node(j)))
		}
	}

	c := st.Config
	u(uint64(len(c.Sizes)))
	for _, k := range c.Sizes {
		i(int64(k))
	}
	i(int64(c.D))
	b(c.CSS)
	b(c.NB)
	b(c.RecoverStars)
	i(int64(c.BurnIn))
	i(int64(c.Walkers))
	i(c.Seed)
	i(int64(st.WindowsDone))
	u(uint64(len(st.Walkers)))
	for _, w := range st.Walkers {
		u(w.RNGPos)
		b(w.Seeded)
		b(w.Primed)
		state(w.Cur)
		state(w.Prev)
		b(w.HasPrev)
		i(w.Steps)
		u(uint64(len(w.Win)))
		for _, s := range w.Win {
			state(s)
		}
		u(uint64(len(w.Degs)))
		for _, d := range w.Degs {
			i(int64(d))
		}
		u(uint64(len(w.Accs)))
		for _, a := range w.Accs {
			i(int64(a.Done))
			i(int64(a.ValidSamples))
			u(uint64(len(a.Weights)))
			for _, x := range a.Weights {
				f(x)
			}
			u(uint64(len(a.TypeCounts)))
			for _, n := range a.TypeCounts {
				i(n)
			}
		}
		f(w.StarAcc)
	}
	h.Write(buf)
}
