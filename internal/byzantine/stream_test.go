package byzantine

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// TestRandomGaussianKnownAnswer pins the first draws of the keyed stream, so
// any change to the keying or the sampler shows up as a diff here rather
// than as a silent shift in every "random" experiment.
func TestRandomGaussianKnownAnswer(t *testing.T) {
	cases := []struct {
		seed         int64
		round, agent int
		want         []float64
	}{
		{seed: 42, round: 3, agent: 1, want: []float64{-16.866030348324635, -369.84836727720625, -337.84470899258554}},
		{seed: -7, round: 0, agent: 5, want: []float64{-230.851570695686, 130.10575131838547, -16.858347356932548}},
		{seed: -1 << 63, round: 499, agent: 0, want: []float64{60.5968820471763, -60.374124750048765, -63.44665251444067}},
	}
	for _, c := range cases {
		g, err := NewRandomGaussian(200, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Apply(c.round, c.agent, make([]float64, len(c.want)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("seed %d round %d agent %d: draws %v, want %v", c.seed, c.round, c.agent, got, c.want)
				break
			}
		}
	}
}

// TestRandomGaussianDistribution runs a Kolmogorov–Smirnov test of the
// pooled draws against N(0, σ²). The draws are deterministic, so the test
// cannot flake; the critical value is the α = 0.001 one.
func TestRandomGaussianDistribution(t *testing.T) {
	const (
		sigma  = 200.0
		d      = 7 // odd: a sampler that made its draws in pairs would end mid-pair
		rounds = 3000
	)
	g, err := NewRandomGaussian(sigma, -3)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 0, d*rounds)
	for round := 0; round < rounds; round++ {
		v, err := g.Apply(round, round%6, make([]float64, d))
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, v...)
	}
	sort.Float64s(xs)
	n := float64(len(xs))
	var ks float64
	for i, x := range xs {
		cdf := 0.5 * math.Erfc(-x/(sigma*math.Sqrt2))
		ks = math.Max(ks, math.Max(float64(i+1)/n-cdf, cdf-float64(i)/n))
	}
	if crit := 1.9495 / math.Sqrt(n); ks > crit {
		t.Errorf("KS statistic %.5f over %d draws exceeds %.5f", ks, len(xs), crit)
	}
}

// TestRandomGaussianDistinctStreams checks that no two (round, agent) keys
// of a 500×10 grid share a stream. A generator seeded through a 31-bit
// reduction of the key cannot promise this.
func TestRandomGaussianDistinctStreams(t *testing.T) {
	for _, seed := range []int64{42, -42} {
		g, err := NewRandomGaussian(200, seed)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[float64]string, 5000)
		for round := 0; round < 500; round++ {
			for agent := 0; agent < 10; agent++ {
				v, err := g.Apply(round, agent, make([]float64, 1))
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("(%d, %d)", round, agent)
				if prev, ok := seen[v[0]]; ok {
					t.Fatalf("seed %d: %s and %s share first draw %v", seed, prev, key, v[0])
				}
				seen[v[0]] = key
			}
		}
	}
}

// TestRandomGaussianApplyAllocBytes keeps a per-call seeded generator from
// coming back: the paper-sized call (d = 2) must allocate well under the
// several KiB a freshly seeded math/rand source costs.
func TestRandomGaussianApplyAllocBytes(t *testing.T) {
	g, err := NewRandomGaussian(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	grad := []float64{1, -1}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Apply(i, i%6, grad); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 1024 {
		t.Errorf("RandomGaussian.Apply allocates %d B per call, want < 1024", got)
	}
}

// BenchmarkBehaviorApply times one Apply of every registry behavior at the
// paper's dimension and at a wide one; run it with -benchmem.
func BenchmarkBehaviorApply(b *testing.B) {
	for _, name := range Names() {
		for _, d := range []int{2, 50} {
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				beh, err := New(name, 1)
				if err != nil {
					b.Fatal(err)
				}
				grad := make([]float64, d)
				for i := range grad {
					grad[i] = float64(i) - 0.5
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := beh.Apply(i, i%6, grad); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
