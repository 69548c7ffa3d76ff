package mlsim

import (
	"slices"
	"testing"
)

// batchRecorder is a Model that records the minibatch indices it is asked
// for and returns a zero gradient.
type batchRecorder struct {
	Model
	idx []int
}

func (r *batchRecorder) Grad(params []float64, ds *Dataset, idx []int) ([]float64, error) {
	r.idx = append(r.idx[:0], idx...)
	return make([]float64, len(params)), nil
}

// minibatch returns the indices an SGDAgent over n points draws at round.
func minibatch(t *testing.T, seed int64, n, batch, round int) []int {
	t.Helper()
	rec := &batchRecorder{Model: Softmax{Classes: 2, Dim: 1}}
	data := &Dataset{Points: make([][]float64, n), Labels: make([]int, n), Classes: 2, Dim: 1}
	a := &SGDAgent{Model: rec, Data: data, Batch: batch, Seed: seed}
	if _, err := a.Gradient(round, make([]float64, rec.ParamDim())); err != nil {
		t.Fatal(err)
	}
	return rec.idx
}

// TestSGDAgentMinibatchKnownAnswer pins the first minibatch of the keyed
// stream at fixed (Seed, round), one of them with a negative seed.
func TestSGDAgentMinibatchKnownAnswer(t *testing.T) {
	cases := []struct {
		seed  int64
		round int
		want  []int
	}{
		{seed: 3, round: 0, want: []int{283, 158, 371, 123, 342, 238, 131, 155}},
		{seed: -11, round: 7, want: []int{369, 246, 290, 29, 274, 388, 13, 255}},
	}
	for _, c := range cases {
		if got := minibatch(t, c.seed, 400, 8, c.round); !slices.Equal(got, c.want) {
			t.Errorf("seed %d round %d: batch %v, want %v", c.seed, c.round, got, c.want)
		}
	}
}

// TestSGDAgentMinibatchUniform checks that minibatch indices stay in range
// and pass a chi-square test for uniformity over the shard. The draws are
// deterministic, so the α = 0.001 critical value cannot flake.
func TestSGDAgentMinibatchUniform(t *testing.T) {
	const (
		n      = 20
		batch  = 16
		rounds = 2000
		crit   = 43.820 // χ² with n-1 = 19 degrees of freedom, α = 0.001
	)
	counts := make([]int, n)
	for round := 0; round < rounds; round++ {
		for _, i := range minibatch(t, -5, n, batch, round) {
			if i < 0 || i >= n {
				t.Fatalf("round %d: index %d outside [0, %d)", round, i, n)
			}
			counts[i]++
		}
	}
	expect := float64(rounds*batch) / n
	var chi2 float64
	for _, c := range counts {
		dev := float64(c) - expect
		chi2 += dev * dev / expect
	}
	if chi2 > crit {
		t.Errorf("chi-square %.2f exceeds %.2f; counts %v", chi2, crit, counts)
	}
}
