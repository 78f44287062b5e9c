package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro"
)

// prompt is printed before each edit command is read.
const prompt = "impacct> "

// editCmd opens an interactive scheduling session on a problem: the
// terminal version of the paper's power-aware Gantt chart tool. It
// reads commands (helpText lists them) from stdin until quit or the end
// of input; a command's error is printed and the session goes on.
func editCmd(fs *flag.FlagSet) (string, int, func([]string, stdio) error) {
	seed := fs.Int64("seed", 0, "random seed for the heuristics")
	return "<spec-file>", 1, func(args []string, s stdio) error {
		prob, err := impacct.ParseSpecFile(args[0])
		if err != nil {
			return err
		}
		session, err := impacct.NewSession(prob, impacct.Options{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "editing %s (%d tasks); type help for commands\n", prob.Name, len(prob.Tasks))
		sc := bufio.NewScanner(s.in)
		for {
			fmt.Fprint(s.out, prompt)
			if !sc.Scan() {
				return sc.Err()
			}
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if line == "quit" || line == "exit" {
				return nil
			}
			if err := edit(session, strings.Fields(line), s.out); err != nil {
				fmt.Fprintf(s.out, "error: %v\n", err)
			}
		}
	}
}

// edit runs one session command.
func edit(s *impacct.Session, fields []string, w io.Writer) error {
	switch fields[0] {
	case "help":
		fmt.Fprint(w, helpText)
	case "show":
		fmt.Fprint(w, s.Chart().ASCII(1))
	case "metrics":
		m := s.Metrics()
		fmt.Fprintf(w, "finish=%d s  peak=%.4g W  cost=%.4g J  utilization=%.1f%%\n",
			m.Finish, m.Peak, m.EnergyCost, 100*m.Utilization)
	case "tasks":
		listTasks(s, w)
	case "gaps":
		fmt.Fprintf(w, "gaps: %v\n", s.Gaps())
	case "move", "drag":
		if len(fields) != 3 {
			return fmt.Errorf("%s wants <task> <time>", fields[0])
		}
		task := fields[1]
		at, err := strconv.Atoi(fields[2])
		if err != nil {
			return fmt.Errorf("bad time %q", fields[2])
		}
		if fields[0] == "move" {
			err = s.Move(task, at)
		} else {
			err = s.MoveAndReschedule(task, at)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s now starts at %d\n", task, at)
	case "lock", "unlock":
		if len(fields) != 2 {
			return fmt.Errorf("%s wants <task>", fields[0])
		}
		op := s.Lock
		if fields[0] == "unlock" {
			op = s.Unlock
		}
		if err := op(fields[1]); err != nil {
			return err
		}
		fmt.Fprintf(w, "%sed %s\n", fields[0], fields[1])
	case "reschedule":
		if err := s.Reschedule(); err != nil {
			return err
		}
		fmt.Fprintln(w, "rescheduled")
	case "undo":
		if !s.Undo() {
			return fmt.Errorf("nothing to undo")
		}
		fmt.Fprintln(w, "undone")
	case "redo":
		if !s.Redo() {
			return fmt.Errorf("nothing to redo")
		}
		fmt.Fprintln(w, "redone")
	default:
		return fmt.Errorf("unknown command %q (try help)", fields[0])
	}
	return nil
}

// listTasks prints the tasks in start order, a '*' marking each lock.
func listTasks(s *impacct.Session, w io.Writer) {
	p, sch := s.Problem(), s.Schedule()
	locked := map[string]bool{}
	for _, n := range s.Locked() {
		locked[n] = true
	}
	idxs := make([]int, len(p.Tasks))
	for i := range idxs {
		idxs[i] = i
	}
	sort.Slice(idxs, func(a, b int) bool { return sch.Start[idxs[a]] < sch.Start[idxs[b]] })
	for _, i := range idxs {
		t := p.Tasks[i]
		mark := " "
		if locked[t.Name] {
			mark = "*"
		}
		fmt.Fprintf(w, "%s %-10s %-10s [%3d,%3d)  %.4g W\n",
			mark, t.Name, t.Resource, sch.Start[i], sch.Start[i]+t.Delay, t.Power)
	}
}

// helpText is the session's command list: show renders the power-aware
// Gantt chart, tasks lists starts and locks, gaps the min-power gaps,
// and reschedule re-runs the pipeline around the locks.
const helpText = `commands:
  show | metrics | tasks | gaps
  move <task> <t>    drag a bin (strictly validated)
  drag <task> <t>    drag with automatic repair
  lock <task> | unlock <task> | reschedule
  undo | redo | quit
`
