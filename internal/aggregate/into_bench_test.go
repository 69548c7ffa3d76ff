package aggregate

// Benchmarks for the scratch-space API: per filter, the allocating
// Aggregate face against AggregateInto with a warm Scratch, at
// learning-scale inputs. Run with -benchmem — the into column's B/op and
// allocs/op are the point.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkFilterInto compares Aggregate (alloc) with AggregateInto (into,
// warm scratch) for every registered filter at n = 50 gradients of
// dimension 1000, f = 5, sequential workers.
func BenchmarkFilterInto(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	const n, d, f = 50, 1000, 5
	grads := make([][]float64, n)
	for i := range grads {
		grads[i] = make([]float64, d)
		for j := range grads[i] {
			grads[i][j] = r.NormFloat64()
		}
	}
	for _, name := range Names() {
		filter, err := New(name)
		if err != nil {
			b.Fatal(err)
		}
		into := filter.(IntoFilter)
		if _, err := filter.Aggregate(grads, f); errors.Is(err, ErrTooManyFaults) {
			continue // infeasible at this (n, f); nothing to measure
		}
		b.Run(fmt.Sprintf("%s/alloc", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := filter.Aggregate(grads, f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/into", name), func(b *testing.B) {
			scratch := &Scratch{}
			dst := make([]float64, d)
			if err := into.AggregateInto(dst, grads, f, scratch); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := into.AggregateInto(dst, grads, f, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBulyan measures exact Bulyan's AggregateInto with a warm Scratch
// at the wide-filter shape (n = 100, d = 50) for f in {10, 20}: theta =
// n-2f selection steps over one distance matrix. Sequential workers, so the
// allocs/op column is the zero-alloc gate.
func BenchmarkBulyan(b *testing.B) {
	const n, d = 100, 50
	r := rand.New(rand.NewSource(3))
	grads := make([][]float64, n)
	for i := range grads {
		grads[i] = make([]float64, d)
		for j := range grads[i] {
			grads[i][j] = r.NormFloat64()
		}
	}
	for _, f := range []int{10, 20} {
		b.Run(fmt.Sprintf("n=%d/d=%d/f=%d", n, d, f), func(b *testing.B) {
			filter := Bulyan{Workers: 1}
			scratch := &Scratch{}
			dst := make([]float64, d)
			if err := filter.AggregateInto(dst, grads, f, scratch); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := filter.AggregateInto(dst, grads, f, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
