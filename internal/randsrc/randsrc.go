// Package randsrc provides a rand.Source64 whose output is math/rand's
// own: for every int64 seed, New(seed) yields the same Int63 and Uint64
// stream as rand.NewSource(seed), so a *rand.Rand built on it draws the
// same Intn, Float64 and Shuffle values. Only seeding differs, and only
// in speed.
//
// math/rand's source is an additive lagged Fibonacci generator over a
// 607-word register. Its Seed fills the register from a Lehmer sequence
// x' = 48271·x mod (2^31−1), three consecutive values per word, each
// word XORed with a fixed table (rngCooked). The Lehmer step is computed
// there with Schrage's method — one division per step along a 1,841-step
// serial chain. Schrage's method computes 48271·x mod (2^31−1) exactly,
// so the same values come from a 64-bit multiply by a power of the
// multiplier followed by a Mersenne reduction. Seed here jumps ahead by
// A^6 along two interleaved chains (one for the even words, one for the
// odd), and derives each word's second and third values from its first
// by A and A^2 off the chain.
//
// The XOR table is not copied: init recovers it from math/rand's own
// first 607 outputs for one fixed seed by running the additive
// recurrence backwards to the seeded register, then XORing off the
// Lehmer part.
package randsrc

import "math/rand"

const (
	length = 607 // register words
	tap    = 273 // feedback tap distance
	mask   = 1<<63 - 1
	m      = 1<<31 - 1 // Lehmer modulus, a Mersenne prime
	a      = 48271     // Lehmer multiplier

	// Powers of a modulo m, for the jump-ahead. Word i of the register
	// takes the Lehmer values after steps 21+3i, 22+3i and 23+3i.
	a2  = a * a % m
	a3  = a2 * a % m
	a6  = a3 * a3 % m
	a21 = a6 * a6 % m * a6 % m * a3 % m
	a24 = a21 * a3 % m
)

// cooked is math/rand's rngCooked table, recovered at init.
var cooked [length]uint64

// Source is math/rand's additive lagged Fibonacci source. The zero value
// is not seeded; use New or Seed.
type Source struct {
	tap, feed int
	vec       [length]uint64
}

var _ rand.Source64 = (*Source)(nil)

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed sets the source to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) { s.fill(seed, &cooked) }

// mulMod returns x·k mod m for x, k in [1, m).
func mulMod(x, k uint64) uint64 {
	p := x * k // < 2^62
	// 2^31 ≡ 1 (mod m), so the high and low halves add; the sum is
	// below 2m and never exactly m, since m is prime and p is not a
	// multiple of it.
	r := p&m + p>>31
	if r >= m {
		r -= m
	}
	return r
}

// word assembles a register word from its first Lehmer value y, as
// math/rand's Seed does from y, a·y and a²·y.
func word(y uint64) uint64 {
	return y<<40 ^ mulMod(y, a)<<20 ^ mulMod(y, a2)
}

// fill seeds the register with xor applied to its words.
func (s *Source) fill(seed int64, xor *[length]uint64) {
	s.tap = 0
	s.feed = length - tap

	// math/rand's reduction of the seed to a Lehmer state in [1, m).
	seed %= m
	if seed < 0 {
		seed += m
	}
	if seed == 0 {
		seed = 89482311
	}

	x := uint64(seed)
	even, odd := mulMod(x, a21), mulMod(x, a24)
	i := 0
	for ; i+1 < length; i += 2 {
		s.vec[i] = word(even) ^ xor[i]
		s.vec[i+1] = word(odd) ^ xor[i+1]
		even, odd = mulMod(even, a6), mulMod(odd, a6)
	}
	s.vec[i] = word(even) ^ xor[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & mask) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// init recovers the XOR table. From a freshly seeded register, math/rand's
// first 607 draws each rewrite one distinct word — the one at feed — to
// the value drawn, so after them the register is exactly the draws. Undoing
// the draws in reverse (the word at feed minus the word at tap) restores
// the seeded register, whose words are the Lehmer words XORed with the
// table.
func init() {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var s Source
	s.tap, s.feed = 0, length-tap
	var taps, feeds [length]int
	for j := range length {
		s.tap, s.feed = (s.tap+length-1)%length, (s.feed+length-1)%length
		taps[j], feeds[j] = s.tap, s.feed
		s.vec[s.feed] = src.Uint64()
	}
	for j := length - 1; j >= 0; j-- {
		s.vec[feeds[j]] -= s.vec[taps[j]]
	}
	var plain Source
	plain.fill(seed, new([length]uint64))
	for i := range cooked {
		cooked[i] = s.vec[i] ^ plain.vec[i]
	}
}
