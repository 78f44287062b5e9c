package randsrc

import (
	"math"
	"math/rand"
	"testing"
)

// seeds are the reduction's edge cases — zero (replaced by 89482311),
// the replacement itself, ±m and its multiples (which reduce to zero),
// 2^31, the int64 extremes — plus 200 arbitrary seeds.
func seeds() []int64 {
	s := []int64{
		0, 1, -1, 89482311, -89482311,
		m, -m, m - 1, -(m - 1), m + 1, 1 << 31, -(1 << 31),
		2 * m, -2 * m, 1000 * m, m * m, -(m * m),
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
	}
	r := rand.New(rand.NewSource(42))
	for range 200 {
		s = append(s, int64(r.Uint64()))
	}
	return s
}

// sameDraws draws n values of every kind the pipeline and the simulator
// use from want and got and reports the first difference.
func sameDraws(t *testing.T, seed int64, want, got *rand.Rand, n int) {
	t.Helper()
	for i := range n {
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: Int63 #%d = %d, want %d", seed, i, g, w)
		}
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d: Uint64 #%d = %d, want %d", seed, i, g, w)
		}
		if w, g := want.Intn(1+i%1000), got.Intn(1+i%1000); w != g {
			t.Fatalf("seed %d: Intn #%d = %d, want %d", seed, i, g, w)
		}
		if w, g := want.Float64(), got.Float64(); w != g {
			t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, i, g, w)
		}
	}
	wp, gp := make([]int, 64), make([]int, 64)
	for i := range wp {
		wp[i], gp[i] = i, i
	}
	want.Shuffle(len(wp), func(i, j int) { wp[i], wp[j] = wp[j], wp[i] })
	got.Shuffle(len(gp), func(i, j int) { gp[i], gp[j] = gp[j], gp[i] })
	for i := range wp {
		if wp[i] != gp[i] {
			t.Fatalf("seed %d: Shuffle differs at %d: %v, want %v", seed, i, gp, wp)
		}
	}
}

func TestMatchesMathRand(t *testing.T) {
	reused := New(7)
	reusedRng := rand.New(reused)
	for _, seed := range seeds() {
		// 2,000 rounds of four kinds is over 8,000 draws: every register
		// word is rewritten many times over.
		sameDraws(t, seed, rand.New(rand.NewSource(seed)), rand.New(New(seed)), 2000)
		// A reseed after draws starts the same stream afresh.
		reused.Seed(seed)
		sameDraws(t, seed, rand.New(rand.NewSource(seed)), reusedRng, 2000)
	}
}

func FuzzSeed(f *testing.F) {
	for _, s := range []int64{0, -1, m, math.MinInt64, math.MaxInt64} {
		f.Add(s, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		want, got := rand.NewSource(seed).(rand.Source64), New(seed)
		for i := range int(draws) {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 #%d = %d, want %d", seed, i, g, w)
			}
		}
		// Reseeding mid-stream restarts it.
		want.Seed(seed)
		got.Seed(seed)
		for i := range 700 {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d: Int63 #%d after reseed = %d, want %d", seed, i, g, w)
			}
		}
	})
}

func BenchmarkSeed(b *testing.B) {
	b.Run("randsrc", func(b *testing.B) {
		s := New(1)
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(1)
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
}
