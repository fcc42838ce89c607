package forecast

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateBlobs = flag.Bool("update-blobs", false, "rewrite the fitted model blobs under testdata/")

// TestSavedNeuralBlobs holds the neural forecasters to the model files they
// wrote earlier: each blob under testdata/ was saved from a tiny fitted
// model, must load into a model built from the same config and predict a
// pinned fan, and must be exactly what fitting that config writes today.
// A model file or daemon checkpoint saved by an older build therefore
// keeps loading to the same bits, and training keeps its every bit.
// Regenerate with -update-blobs only when a change is meant to move them.
func TestSavedNeuralBlobs(t *testing.T) {
	s := noisySine(260, 24, 50, 10, 1, 23)
	train := s.Slice(0, 200)
	hist := s.Slice(0, 230)
	levels := []float64{0.1, 0.5, 0.9}
	const h = 4

	type savedModel interface {
		QuantileForecaster
		Snapshotter
	}
	cases := []struct {
		file string
		make func() savedModel
		want uint64
	}{
		{"deepar.bin", func() savedModel {
			return NewDeepAR(DeepARConfig{
				Context: 16, Hidden: 6, Epochs: 1, LR: 5e-3, Seed: 9,
				MaxWindows: 12, Samples: 8, TrainHorizon: 6, Workers: 1,
			})
		}, 0x2bdf16e8edf31eab},
		{"tft.bin", func() savedModel {
			return NewTFT(TFTConfig{
				Context: 16, Hidden: 6, Epochs: 1, LR: 5e-3, Seed: 9,
				MaxWindows: 12, TrainHorizon: 6, Levels: []float64{0.1, 0.5, 0.9},
			})
		}, 0x4327dcabe2933181},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			fitted := tc.make()
			if err := fitted.Fit(train); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := fitted.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if *updateBlobs {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading %s (regenerate with -update-blobs): %v", path, err)
			}
			if !bytes.Equal(buf.Bytes(), blob) {
				t.Errorf("fitting the config no longer writes %s byte for byte", path)
			}
			loaded := tc.make()
			if err := loaded.Load(bytes.NewReader(blob)); err != nil {
				t.Fatal(err)
			}
			f, err := loaded.PredictQuantiles(hist, h, levels)
			if err != nil {
				t.Fatal(err)
			}
			if got := fanHash(f); got != tc.want {
				t.Errorf("fan from %s hashes %#016x, want %#016x", path, got, tc.want)
			}
		})
	}
}
