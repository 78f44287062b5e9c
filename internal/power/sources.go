package power

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// Solar models a free, non-storable power source whose output level
// varies over mission time as a piecewise-constant function (the paper's
// best/typical/worst solar output, and the mission scenario's 14.9 W ->
// 12 W -> 9 W staircase). Energy not consumed while available is lost.
type Solar struct {
	phases []solarPhase
}

type solarPhase struct {
	start model.Time // phase begins at this mission time
	watts float64
}

// NewSolar returns a constant source producing watts forever.
func NewSolar(watts float64) *Solar {
	return &Solar{phases: []solarPhase{{start: 0, watts: watts}}}
}

// AddPhase sets the output to watts from mission time start onward
// (until a later phase overrides it). Phases may be added in any order.
func (s *Solar) AddPhase(start model.Time, watts float64) {
	s.phases = append(s.phases, solarPhase{start: start, watts: watts})
	sort.Slice(s.phases, func(i, j int) bool { return s.phases[i].start < s.phases[j].start })
}

// At returns the solar output at mission time t. Before the first phase
// the output is 0.
func (s *Solar) At(t model.Time) float64 {
	out := 0.0
	for _, ph := range s.phases {
		if ph.start > t {
			break
		}
		out = ph.watts
	}
	return out
}

// Battery models the non-rechargeable battery pack: a finite energy
// store with a maximum output power. Draw debits energy; once Remaining
// hits zero the mission is over.
type Battery struct {
	// Capacity is the total stored energy in joules (0 means untracked:
	// infinite energy, only MaxPower constrains the system).
	Capacity float64
	// MaxPower is the maximum output power in watts (10 W for the
	// rover's pack in Table 2).
	MaxPower float64

	drawn float64
}

// Draw debits j joules from the battery. It returns an error if the
// battery lacks the energy; the debit is not applied in that case.
func (b *Battery) Draw(j float64) error {
	if j < 0 {
		return fmt.Errorf("power: negative battery draw %g J", j)
	}
	if b.Capacity > 0 && b.drawn+j > b.Capacity {
		return fmt.Errorf("power: battery exhausted: need %g J, %g J remaining", j, b.Remaining())
	}
	b.drawn += j
	return nil
}

// Drawn returns the total energy debited so far.
func (b *Battery) Drawn() float64 { return b.drawn }

// Remaining returns the energy left, or +Inf-like semantics via a
// negative value when Capacity is untracked (0).
func (b *Battery) Remaining() float64 {
	if b.Capacity == 0 {
		return -1
	}
	return b.Capacity - b.drawn
}

// Supply couples the two sources into the constraint parameters the
// scheduler consumes: at mission time t the max power budget is
// solar(t) + battery max output, and the min power goal (the free
// level) is solar(t). This is exactly how the paper derives Pmax and
// Pmin for the rover.
type Supply struct {
	Solar   *Solar
	Battery *Battery
}

// PminAt returns the free power level at mission time t.
func (s Supply) PminAt(t model.Time) float64 { return s.Solar.At(t) }
