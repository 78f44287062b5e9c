// Package power implements the power properties of a schedule from
// section 4.2 of the paper: the piecewise-constant power profile
// P_sigma(t), max-power spikes, min-power gaps, the energy cost
// Ec_sigma(Pmin) drawn from non-renewable sources, and the min-power
// utilization rho_sigma(Pmin). It also models the power sources of the
// motivating example: a time-varying free source (solar panel) and a
// non-rechargeable battery with a maximum output power.
package power

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/schedule"
)

// Segment is one piece of a piecewise-constant power profile:
// consumption P over [T0, T1).
type Segment struct {
	T0, T1 model.Time
	P      float64
}

// Interval is a half-open time interval [T0, T1).
type Interval struct {
	T0, T1 model.Time
}

// Profile is the power profile P_sigma(t) of a schedule over [0, tau):
// contiguous, non-empty segments covering the whole schedule. The zero
// value is an empty profile of length 0.
type Profile struct {
	Segs []Segment
}

// Build computes the power profile of schedule s for the given tasks
// plus a constant base load. Segments cover [0, Finish) contiguously;
// adjacent segments with equal power are merged.
func Build(tasks []model.Task, s schedule.Schedule, base float64) Profile {
	tau := s.Finish(tasks)
	if tau == 0 {
		return Profile{}
	}
	// Sweep over start/end events accumulating power deltas.
	deltas := make(map[model.Time]float64)
	deltas[0] += base
	deltas[tau] -= base
	for i, t := range tasks {
		deltas[s.Start[i]] += t.Power
		deltas[s.Start[i]+t.Delay] -= t.Power
	}
	times := make([]model.Time, 0, len(deltas))
	for t := range deltas {
		times = append(times, t)
	}
	sort.Ints(times)

	var segs []Segment
	var cur float64
	for k := 0; k+1 < len(times); k++ {
		cur += deltas[times[k]]
		t0, t1 := times[k], times[k+1]
		if t1 > tau {
			t1 = tau
		}
		if t0 >= tau || t1 <= t0 {
			continue
		}
		if n := len(segs); n > 0 && segs[n-1].P == cur && segs[n-1].T1 == t0 {
			segs[n-1].T1 = t1
		} else {
			segs = append(segs, Segment{T0: t0, T1: t1, P: cur})
		}
	}
	return Profile{Segs: segs}
}

// Duration returns the profile's extent tau.
func (p Profile) Duration() model.Time {
	if len(p.Segs) == 0 {
		return 0
	}
	return p.Segs[len(p.Segs)-1].T1
}

// At returns P(t). Queries outside [0, tau) return 0.
func (p Profile) At(t model.Time) float64 {
	// Binary search for the segment containing t.
	i := sort.Search(len(p.Segs), func(i int) bool { return p.Segs[i].T1 > t })
	if i < len(p.Segs) && p.Segs[i].T0 <= t {
		return p.Segs[i].P
	}
	return 0
}

// Peak returns max over t of P(t) (0 for an empty profile).
func (p Profile) Peak() float64 {
	var m float64
	for _, s := range p.Segs {
		if s.P > m {
			m = s.P
		}
	}
	return m
}

// Floor returns min over [0,tau) of P(t) (0 for an empty profile).
func (p Profile) Floor() float64 {
	if len(p.Segs) == 0 {
		return 0
	}
	m := p.Segs[0].P
	for _, s := range p.Segs[1:] {
		if s.P < m {
			m = s.P
		}
	}
	return m
}

// Energy returns the total energy of the profile, integral of P dt.
func (p Profile) Energy() float64 {
	var e float64
	for _, s := range p.Segs {
		e += s.P * float64(s.T1-s.T0)
	}
	return e
}

// Spikes returns the maximal intervals where P(t) > pmax: the power
// spikes that make a schedule power-invalid.
func (p Profile) Spikes(pmax float64) []Interval {
	return p.exceeding(func(v float64) bool { return v > pmax })
}

// Gaps returns the maximal intervals where P(t) < pmin: the power gaps
// the min-power scheduler tries to fill.
func (p Profile) Gaps(pmin float64) []Interval {
	return p.exceeding(func(v float64) bool { return v < pmin })
}

func (p Profile) exceeding(pred func(float64) bool) []Interval {
	var out []Interval
	for _, s := range p.Segs {
		if !pred(s.P) {
			continue
		}
		if n := len(out); n > 0 && out[n-1].T1 == s.T0 {
			out[n-1].T1 = s.T1
		} else {
			out = append(out, Interval{T0: s.T0, T1: s.T1})
		}
	}
	return out
}

// Valid reports whether the profile respects the max power budget.
// Equivalent to len(p.Spikes(pmax)) == 0, but allocation-free: the
// schedulers probe validity after every candidate move.
func (p Profile) Valid(pmax float64) bool {
	for _, s := range p.Segs {
		if s.P > pmax {
			return false
		}
	}
	return true
}

// EnergyCost returns Ec_sigma(pmin): the energy drawn above the free
// power level, i.e. integral of max(0, P(t)-pmin) dt. When pmin is the
// available solar power this is the energy cost charged to the
// non-rechargeable battery.
func (p Profile) EnergyCost(pmin float64) float64 {
	var e float64
	for _, s := range p.Segs {
		if s.P > pmin {
			e += (s.P - pmin) * float64(s.T1-s.T0)
		}
	}
	return e
}

// FreeEnergyUsed returns the energy actually drawn from the free
// source: integral of min(P(t), pmin) dt.
func (p Profile) FreeEnergyUsed(pmin float64) float64 {
	var e float64
	for _, s := range p.Segs {
		v := s.P
		if v > pmin {
			v = pmin
		}
		e += v * float64(s.T1-s.T0)
	}
	return e
}

// Utilization returns rho_sigma(pmin): the ratio of free energy used
// over total available free energy pmin*tau. It is 1 when the profile
// never drops below pmin. For pmin <= 0 or an empty profile it returns 1
// (there is no free energy to waste).
func (p Profile) Utilization(pmin float64) float64 {
	tau := p.Duration()
	if pmin <= 0 || tau == 0 {
		return 1
	}
	return p.FreeEnergyUsed(pmin) / (pmin * float64(tau))
}

// String renders the profile compactly for logs and tests.
func (p Profile) String() string {
	s := "profile{"
	for i, seg := range p.Segs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("[%d,%d)=%.4gW", seg.T0, seg.T1, seg.P)
	}
	return s + "}"
}
