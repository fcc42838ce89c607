package forecast

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// fanHash folds every float of a fan — levels, means, quantiles, in that
// order — into an FNV-1a hash by bit pattern, so -0 vs +0 or a one-ulp
// drift changes it.
func fanHash(f *QuantileForecast) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, l := range f.Levels {
		put(l)
	}
	for _, m := range f.Mean {
		put(m)
	}
	for _, row := range f.Values {
		for _, v := range row {
			put(v)
		}
	}
	return h.Sum64()
}

// TestNeuralFanGolden pins the output bits of the neural forecasters: the
// nn kernels underneath them (matvec, arena, LSTM step, the Dense layers'
// forward and backward) may change how a fan is computed but never a bit
// of it. Each model is fitted for one epoch and asked for a fan at two
// origins, cold and — where the model has a warm path — warm; the LSTM
// constants were generated before the four-row matvec kernel and the slab
// arena went in and hold on both sides of that change. Hidden 10 gives the
// dense layers a Rows%4 tail; the LSTM gate matrices (4*Hidden rows) are
// all blocks. The mlp case is the one network of Dense layers alone.
func TestNeuralFanGolden(t *testing.T) {
	s := noisySine(400, 24, 50, 10, 1, 17)
	train := s.Slice(0, 300)
	levels := []float64{0.1, 0.5, 0.9, 0.99}
	const h = 5
	origins := []int{330, 331}

	deepar := func(e Emission) func() QuantileForecaster {
		return func() QuantileForecaster {
			return NewDeepAR(DeepARConfig{
				Context: 24, Hidden: 10, Epochs: 1, LR: 5e-3, Seed: 5,
				MaxWindows: 24, Samples: 16, TrainHorizon: 12, Emission: e, Workers: 2,
			})
		}
	}
	tft := func() QuantileForecaster {
		return NewTFT(TFTConfig{
			Context: 24, Hidden: 10, Epochs: 1, LR: 5e-3, Seed: 5,
			MaxWindows: 24, TrainHorizon: 12,
		})
	}
	mlp := func() QuantileForecaster {
		return NewMLP(MLPConfig{Context: 24, Hidden: 10, Epochs: 1, LR: 5e-3, Seed: 5, MaxWindows: 24})
	}
	cases := []struct {
		name string
		make func() QuantileForecaster
		want [2]uint64 // per origin
	}{
		{"deepar-student-t", deepar(EmitStudentT), [2]uint64{0x04d0e8341d506374, 0xe6a0533207db280b}},
		{"deepar-gaussian", deepar(EmitGaussian), [2]uint64{0xc4e42076171aa116, 0xac56c5f159a4f4b6}},
		{"tft-single-head", tft, [2]uint64{0x9762aac5fa6c68b4, 0x275bb39e737930d7}},
		{"mlp", mlp, [2]uint64{0x74c50bfc9bb938c6, 0x59667d4b1267743f}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := tc.make()
			if err := m.Fit(train); err != nil {
				t.Fatal(err)
			}
			for i, origin := range origins {
				hist := s.Slice(0, origin)
				cold, err := m.PredictQuantiles(hist, h, levels)
				if err != nil {
					t.Fatal(err)
				}
				if got := fanHash(cold); got != tc.want[i] {
					t.Errorf("origin %d cold fan hash %#016x, want %#016x", origin, got, tc.want[i])
				}
				inc, ok := m.(IncrementalForecaster)
				if !ok {
					continue
				}
				warm, err := inc.PredictQuantilesWarm(hist, h, levels)
				if err != nil {
					t.Fatal(err)
				}
				if got := fanHash(warm); got != tc.want[i] {
					t.Errorf("origin %d warm fan hash %#016x, want %#016x", origin, got, tc.want[i])
				}
			}
		})
	}
}
