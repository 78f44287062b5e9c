// Package spec implements the textual front-end of the scheduler: a
// small line-oriented specification language for power-aware scheduling
// problems (the "system-level behavioral specification" designers feed
// the IMPACCT tool), plus JSON encoding for interchange.
//
// Grammar (one directive per line, '#' starts a comment):
//
//	problem <name>
//	pmax <watts>
//	pmin <watts>
//	base <watts>                        # constant load (e.g. CPU)
//	task <name> <resource> <delay> <power>
//	machine <name> <speed> <powerscale> # heterogeneous machine set
//	level <task> <mult> <power>         # DVS duration-power point
//	pin <task> <machine>                # restrict task to one machine
//	<from> -> <to> [<min>,]             # min separation of start times
//	<from> -> <to> [<min>,<max>]        # min/max separation window
//	precede <from> <to>                 # from finishes before to starts
//	release <task> <t>                  # task starts at or after t
//	deadline <task> <t>                 # task starts at or before t
//
// Constraint endpoints may name the virtual anchor as "$anchor".
package spec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/model"
)

// Parse reads a problem specification from r. The returned problem has
// been validated.
func Parse(r io.Reader) (*model.Problem, error) {
	p := &model.Problem{}
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := parseDirective(p, fields); err != nil {
			return nil, fmt.Errorf("spec: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	compact(p)
	return p, nil
}

// compact trims a parsed problem to what it holds: Tasks, Constraints
// and Machines get exact capacity, dropping the append slack of
// parsing, and every name is interned — one copy per distinct string,
// shared by the task, its constraint endpoints, resources and pins — so
// the problem keeps no scanner line alive through a substring. A
// service holding many uploaded specs pays only for their contents.
func compact(p *model.Problem) {
	names := make(map[string]string, len(p.Tasks))
	intern := func(s string) string {
		if s == model.Anchor {
			return model.Anchor
		}
		c, ok := names[s]
		if !ok {
			c = strings.Clone(s)
			names[c] = c
		}
		return c
	}
	p.Name = intern(p.Name)
	p.Tasks = exact(p.Tasks)
	for i := range p.Tasks {
		t := &p.Tasks[i]
		t.Name, t.Resource, t.Machine = intern(t.Name), intern(t.Resource), intern(t.Machine)
	}
	p.Constraints = exact(p.Constraints)
	for i := range p.Constraints {
		c := &p.Constraints[i]
		c.From, c.To = intern(c.From), intern(c.To)
	}
	p.Machines = exact(p.Machines)
	for i := range p.Machines {
		p.Machines[i].Name = intern(p.Machines[i].Name)
	}
}

// exact returns a copy of s whose capacity equals its length.
func exact[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// ParseFile parses the specification in the named file.
func ParseFile(path string) (*model.Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// ParseString parses a specification held in a string.
func ParseString(s string) (*model.Problem, error) { return Parse(strings.NewReader(s)) }

func parseDirective(p *model.Problem, f []string) error {
	switch f[0] {
	case "problem":
		if len(f) != 2 {
			return fmt.Errorf("problem wants 1 argument, got %d", len(f)-1)
		}
		p.Name = f[1]
	case "pmax":
		return parseWatts(f, &p.Pmax)
	case "pmin":
		return parseWatts(f, &p.Pmin)
	case "base":
		return parseWatts(f, &p.BasePower)
	case "task":
		if len(f) != 5 {
			return fmt.Errorf("task wants <name> <resource> <delay> <power>")
		}
		delay, err := strconv.Atoi(f[3])
		if err != nil {
			return fmt.Errorf("task %s: bad delay %q", f[1], f[3])
		}
		pw, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return fmt.Errorf("task %s: bad power %q", f[1], f[4])
		}
		p.AddTask(model.Task{Name: f[1], Resource: f[2], Delay: delay, Power: pw})
	case "machine":
		if len(f) != 4 {
			return fmt.Errorf("machine wants <name> <speed> <powerscale>")
		}
		speed, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return fmt.Errorf("machine %s: bad speed %q", f[1], f[2])
		}
		scale, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return fmt.Errorf("machine %s: bad power scale %q", f[1], f[3])
		}
		p.Machines = append(p.Machines, model.Machine{Name: f[1], Speed: speed, PowerScale: scale})
	case "level":
		if len(f) != 4 {
			return fmt.Errorf("level wants <task> <mult> <power>")
		}
		mult, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return fmt.Errorf("level %s: bad multiplier %q", f[1], f[2])
		}
		pw, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return fmt.Errorf("level %s: bad power %q", f[1], f[3])
		}
		i, ok := taskIndex(p, f[1])
		if !ok {
			return fmt.Errorf("level: unknown task %q (declare the task first)", f[1])
		}
		p.Tasks[i].Levels = append(p.Tasks[i].Levels, model.DVSLevel{Mult: mult, Power: pw})
	case "pin":
		if len(f) != 3 {
			return fmt.Errorf("pin wants <task> <machine>")
		}
		i, ok := taskIndex(p, f[1])
		if !ok {
			return fmt.Errorf("pin: unknown task %q (declare the task first)", f[1])
		}
		p.Tasks[i].Machine = f[2]
	case "precede":
		if len(f) != 3 {
			return fmt.Errorf("precede wants <from> <to>")
		}
		return p.Precede(f[1], f[2])
	case "release":
		task, t, err := nameTime(f)
		if err != nil {
			return err
		}
		p.Release(task, t)
	case "deadline":
		task, t, err := nameTime(f)
		if err != nil {
			return err
		}
		p.Deadline(task, t)
	default:
		// "<from> -> <to> [min,max]" constraint form.
		if len(f) == 4 && f[1] == "->" {
			return parseSeparation(p, f)
		}
		return fmt.Errorf("unknown directive %q", f[0])
	}
	return nil
}

func taskIndex(p *model.Problem, name string) (int, bool) {
	for i := range p.Tasks {
		if p.Tasks[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

func parseWatts(f []string, dst *float64) error {
	if len(f) != 2 {
		return fmt.Errorf("%s wants 1 argument", f[0])
	}
	v, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return fmt.Errorf("%s: bad value %q", f[0], f[1])
	}
	*dst = v
	return nil
}

func nameTime(f []string) (string, model.Time, error) {
	if len(f) != 3 {
		return "", 0, fmt.Errorf("%s wants <task> <time>", f[0])
	}
	t, err := strconv.Atoi(f[2])
	if err != nil {
		return "", 0, fmt.Errorf("%s: bad time %q", f[0], f[2])
	}
	return f[1], t, nil
}

func parseSeparation(p *model.Problem, f []string) error {
	window := f[3]
	if len(window) < 3 || window[0] != '[' || window[len(window)-1] != ']' {
		return fmt.Errorf("bad window %q (want [min,] or [min,max])", window)
	}
	parts := strings.SplitN(window[1:len(window)-1], ",", 2)
	if len(parts) != 2 {
		return fmt.Errorf("bad window %q (missing comma)", window)
	}
	min, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return fmt.Errorf("bad window min %q", parts[0])
	}
	c := model.Constraint{From: f[0], To: f[2], Min: min}
	if maxs := strings.TrimSpace(parts[1]); maxs != "" {
		max, err := strconv.Atoi(maxs)
		if err != nil {
			return fmt.Errorf("bad window max %q", maxs)
		}
		c.Max, c.HasMax = max, true
	}
	p.Constraints = append(p.Constraints, c)
	return nil
}

// Format renders a problem in the specification language; the output
// round-trips through Parse.
func Format(p *model.Problem) string {
	var b strings.Builder
	if p.Name != "" {
		fmt.Fprintf(&b, "problem %s\n", p.Name)
	}
	if p.Pmax != 0 {
		fmt.Fprintf(&b, "pmax %g\n", p.Pmax)
	}
	if p.Pmin != 0 {
		fmt.Fprintf(&b, "pmin %g\n", p.Pmin)
	}
	if p.BasePower != 0 {
		fmt.Fprintf(&b, "base %g\n", p.BasePower)
	}
	b.WriteString("\n")
	for _, m := range p.Machines {
		fmt.Fprintf(&b, "machine %s %g %g\n", m.Name, m.Speed, m.PowerScale)
	}
	if len(p.Machines) > 0 {
		b.WriteString("\n")
	}
	for _, t := range p.Tasks {
		fmt.Fprintf(&b, "task %s %s %d %g\n", t.Name, t.Resource, t.Delay, t.Power)
	}
	// Level and pin lines follow the task block so a future Parse sees
	// every task before the directives referencing it; a degenerate
	// problem emits none, keeping its spec text byte-identical.
	for _, t := range p.Tasks {
		for _, l := range t.Levels {
			fmt.Fprintf(&b, "level %s %g %g\n", t.Name, l.Mult, l.Power)
		}
		if t.Machine != "" {
			fmt.Fprintf(&b, "pin %s %s\n", t.Name, t.Machine)
		}
	}
	b.WriteString("\n")
	for _, c := range p.Constraints {
		if c.HasMax {
			fmt.Fprintf(&b, "%s -> %s [%d,%d]\n", c.From, c.To, c.Min, c.Max)
		} else {
			fmt.Fprintf(&b, "%s -> %s [%d,]\n", c.From, c.To, c.Min)
		}
	}
	return b.String()
}

// WriteFile writes the problem's spec text to the named file.
func WriteFile(path string, p *model.Problem) error {
	return os.WriteFile(path, []byte(Format(p)), 0o644)
}

// MarshalJSON encodes the problem as indented JSON.
func MarshalJSON(p *model.Problem) ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// UnmarshalJSON decodes and validates a problem from JSON.
func UnmarshalJSON(data []byte) (*model.Problem, error) {
	var p model.Problem
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
