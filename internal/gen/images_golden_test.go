package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/graph"
)

// TestGeneratorImagesGolden pins the .gcsr v1 bytes (graph.WriteBinary) of
// every generator and fixture at one small fixed seed and size, plus the
// benchmark's two fixtures. The image holds off, adj, n, m and the max degree,
// so any change to how the Builder orders, dedups or counts shows here as a
// different digest. PowerLawConfiguration, RandomRegular and PlantCliques hand
// the Builder duplicate and self-loop edges, so its dedup is covered too.
func TestGeneratorImagesGolden(t *testing.T) {
	tcs := []struct {
		name  string
		graph func() *graph.Graph
		want  string
	}{
		{
			name:  "gnm",
			graph: func() *graph.Graph { return ErdosRenyiGNM(200, 600, 1) },
			want:  "0f2dc5f809b9bef058a21cb21a845d383cb7e2805d8d76e640c03e03ee1f2cc0",
		},
		{
			name:  "gnp",
			graph: func() *graph.Graph { return ErdosRenyiGNP(200, 0.05, 1) },
			want:  "6152c1965caadbd7d732a3c8eef990383ab86ecd098dad4b40e80abc4e3bc4a6",
		},
		{
			name:  "gnp-complete",
			graph: func() *graph.Graph { return ErdosRenyiGNP(12, 1, 1) },
			want:  "39314630511a201aebd4d7b86c8cce108dec5525950c15f5f653f9997332d0b8",
		},
		{
			name:  "ba",
			graph: func() *graph.Graph { return BarabasiAlbert(300, 3, 1) },
			want:  "523dae2a8e20c435e194a986e5ccb1ce45db3e01e63bb87e17fd7e5739690c52",
		},
		{
			name:  "holme-kim",
			graph: func() *graph.Graph { return HolmeKim(300, 3, 0.5, 1) },
			want:  "3537c1f00972ba16b81598e4f63625213f51add17d7ff741e344cd63d71b09fa",
		},
		{
			name:  "watts-strogatz",
			graph: func() *graph.Graph { return WattsStrogatz(200, 6, 0.2, 1) },
			want:  "708c2b162faf094e7ee8611be05d5e51d3386943bddd000155137d8addb800b1",
		},
		{
			name:  "power-law-configuration",
			graph: func() *graph.Graph { return PowerLawConfiguration(300, 2.2, 2, 80, 1) },
			want:  "ce90a69e215f7f506e1b50ec562d06b096f07fc3e87e2f2e4dc32ac88a075a70",
		},
		{
			name:  "plant-cliques",
			graph: func() *graph.Graph { return PlantCliques(BarabasiAlbert(300, 3, 1), 8, 6, 1) },
			want:  "031a13f1d6cd596f393b4e196f36578c67d25bae5a2f2f88ef9710f5410e5d65",
		},
		{
			name:  "random-regular",
			graph: func() *graph.Graph { return RandomRegular(201, 5, 1) },
			want:  "01eea4c3504e8d54deea6e7318ba6fe23e133a3c62d4bf9ec124e48d3d4dab90",
		},
		{
			name:  "complete",
			graph: func() *graph.Graph { return Complete(9) },
			want:  "c8eaeb3588df3e80d8049748cbf8eb232d1cb04672dcf98b2f6d9ac7a6a229af",
		},
		{
			name:  "cycle",
			graph: func() *graph.Graph { return Cycle(10) },
			want:  "57d9b1ee7a7c830d56e22f56cfc0178fcd1342f4776e56543ce16d2f1bbc585b",
		},
		{
			name:  "path",
			graph: func() *graph.Graph { return Path(10) },
			want:  "9a38878551ae5722d231135fc90af4a776817973db064b26b2195f52c22f072c",
		},
		{
			name:  "star",
			graph: func() *graph.Graph { return Star(10) },
			want:  "00c7d9eff65f3e82bea1f4341e8482117c868e4e0ad15f6047929ffe7dc9bff3",
		},
		{
			name:  "paper-figure-1",
			graph: PaperFigure1,
			want:  "82dd2dfc0a3334e185e393d5227219a4a922e701cd0c8451671ffd34821e103d",
		},
		{
			name:  "lollipop",
			graph: func() *graph.Graph { return Lollipop(6, 4) },
			want:  "44e4b5259a5b17b9a5f8b3858f92a31a6369335e68056ae9024a56fa47542d55",
		},
		{
			name:  "two-triangles",
			graph: TwoTriangles,
			want:  "8236f7dca152841ae7f74a4c42939aea6a9511f4168eda2c493e6788a9cca160",
		},
		{
			// The daemon workloads' fixture.
			name:  "bench-ba",
			graph: func() *graph.Graph { return BarabasiAlbert(200_000, 5, 1337) },
			want:  "cda597ff6e7baab59be4af6e1a9ca7c805c78d03f3f5197fa002f9f3e0a5a07c",
		},
		{
			// lib_replicas' fixture.
			name:  "bench-holme-kim",
			graph: func() *graph.Graph { return HolmeKim(50_000, 5, 0.5, 1337) },
			want:  "3dd9bfbbe73828b6de0a0dac725d7f304744146be23b187f18c5785165a38654",
		},
	}
	for _, tc := range tcs {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := graph.WriteBinary(&buf, tc.graph()); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("image sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}
