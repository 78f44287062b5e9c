package runtime

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/spec"
	"repro/internal/verify"
)

// libraryDoc is the on-disk form of a schedule library: each entry
// carries its problem as spec text (round-trips exactly) and its
// schedule as name/start pairs. Validity ranges are recomputed on load,
// so a library cannot lie about its own safety. A heterogeneous entry
// stores the resolved problem its schedule executes (unit-rated
// machines, every task pinned, no DVS levels), so the stored delays and
// powers are the ones the schedule runs with.
type libraryDoc struct {
	Entries []entryDoc `json:"entries"`
}

type entryDoc struct {
	Name     string          `json:"name"`
	Spec     string          `json:"spec"`
	Schedule json.RawMessage `json:"schedule"`
}

// Save writes the library as JSON.
func Save(w io.Writer, sel *Selector) error {
	var doc libraryDoc
	for _, e := range sel.Entries() {
		schedJSON, err := spec.FormatScheduleJSON(e.Prob, e.Sched)
		if err != nil {
			return fmt.Errorf("runtime: save %s: %w", e.Name, err)
		}
		doc.Entries = append(doc.Entries, entryDoc{
			Name:     e.Name,
			Spec:     spec.Format(e.Prob),
			Schedule: schedJSON,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Load reads a library saved with Save, re-deriving every entry's
// validity range and refusing entries whose schedule does not
// independently verify against its own problem.
func Load(r io.Reader) (*Selector, error) {
	var doc libraryDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("runtime: load: %w", err)
	}
	sel := &Selector{}
	for _, ed := range doc.Entries {
		p, err := spec.ParseString(ed.Spec)
		if err != nil {
			return nil, fmt.Errorf("runtime: load %s: %w", ed.Name, err)
		}
		s, err := spec.ParseScheduleJSON(p, ed.Schedule)
		if err == nil {
			err = checkStored(p, s)
		}
		if err != nil {
			return nil, fmt.Errorf("runtime: load %s: %w", ed.Name, err)
		}
		if rep := verify.Check(p, s); !rep.OK() {
			return nil, fmt.Errorf("runtime: load %s: stored schedule invalid: %w", ed.Name, rep.Err())
		}
		sel.Add(NewEntry(ed.Name, p, s))
	}
	return sel, nil
}

// checkStored refuses an entry that is not in the form Save writes: a
// heterogeneous problem that is not resolved (see libraryDoc), or a
// schedule whose tasks do not run within [0, model.MaxHorizon].
func checkStored(p *model.Problem, s schedule.Schedule) error {
	for _, m := range p.Machines {
		if m.Speed != 1 || m.PowerScale != 1 {
			return fmt.Errorf("machine %q is not unit-rated: store the resolved problem of the plan", m.Name)
		}
	}
	for i, t := range p.Tasks {
		if len(t.Levels) > 0 {
			return fmt.Errorf("task %q has DVS levels: store the resolved problem of the plan", t.Name)
		}
		if t.Delay > model.MaxHorizon || s.Start[i] < 0 || s.Start[i] > model.MaxHorizon-t.Delay {
			return fmt.Errorf("task %q runs [%d, +%d s), outside [0, %d]", t.Name, s.Start[i], t.Delay, model.MaxHorizon)
		}
	}
	return nil
}
