package spec

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/model"
)

const sample = `
# sensor node
problem sensor
pmax 10
pmin 6
base 1

task sample sensor 4 3
task tx radio 3 7

sample -> tx [2,20]
precede sample tx
release tx 1
deadline tx 30
`

func TestParseSample(t *testing.T) {
	p, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "sensor" || p.Pmax != 10 || p.Pmin != 6 || p.BasePower != 1 {
		t.Fatalf("header mismatch: %+v", p)
	}
	if len(p.Tasks) != 2 {
		t.Fatalf("tasks = %d, want 2", len(p.Tasks))
	}
	if !reflect.DeepEqual(p.Tasks[1], model.Task{Name: "tx", Resource: "radio", Delay: 3, Power: 7}) {
		t.Fatalf("task tx = %+v", p.Tasks[1])
	}
	if len(p.Constraints) != 4 {
		t.Fatalf("constraints = %d, want 4", len(p.Constraints))
	}
	w := p.Constraints[0]
	if w.From != "sample" || w.To != "tx" || w.Min != 2 || !w.HasMax || w.Max != 20 {
		t.Fatalf("window = %+v", w)
	}
	pre := p.Constraints[1]
	if pre.Min != 4 || pre.HasMax {
		t.Fatalf("precede = %+v, want min=delay(sample)", pre)
	}
	rel := p.Constraints[2]
	if rel.From != model.Anchor || rel.Min != 1 {
		t.Fatalf("release = %+v", rel)
	}
	dl := p.Constraints[3]
	if dl.From != model.Anchor || !dl.HasMax || dl.Max != 30 {
		t.Fatalf("deadline = %+v", dl)
	}
}

// TestParseCompacts checks that a parsed problem holds no append slack
// and no substring of its input: Tasks and Constraints have exact
// capacity, every constraint endpoint shares its task's Name bytes,
// resources and pins are interned the same way, and the text still
// round-trips through Format unchanged.
func TestParseCompacts(t *testing.T) {
	for _, path := range []string{"../../testdata/example9.spec", "../../testdata/hetero9.spec", "../../testdata/satpass.spec"} {
		p, err := ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if cap(p.Tasks) != len(p.Tasks) || cap(p.Constraints) != len(p.Constraints) || cap(p.Machines) != len(p.Machines) {
			t.Fatalf("%s: capacities tasks %d/%d constraints %d/%d machines %d/%d", path,
				len(p.Tasks), cap(p.Tasks), len(p.Constraints), cap(p.Constraints), len(p.Machines), cap(p.Machines))
		}
		byName := map[string]*byte{}
		for _, task := range p.Tasks {
			byName[task.Name] = unsafe.StringData(task.Name)
		}
		shared := func(s string) bool { return s == model.Anchor || unsafe.StringData(s) == byName[s] }
		for _, c := range p.Constraints {
			if !shared(c.From) || !shared(c.To) {
				t.Fatalf("%s: constraint %v does not share its tasks' names", path, c)
			}
		}
		resources := map[string]*byte{}
		for _, task := range p.Tasks {
			if d, ok := resources[task.Resource]; ok && d != unsafe.StringData(task.Resource) {
				t.Fatalf("%s: resource %q is not interned", path, task.Resource)
			}
			resources[task.Resource] = unsafe.StringData(task.Resource)
		}
		text := Format(p)
		q, err := ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		if got := Format(q); got != text {
			t.Fatalf("%s: Format(Parse(s)) changed the text:\n%s\nvs\n%s", path, got, text)
		}
	}
}

func TestParseAnchorEndpoint(t *testing.T) {
	p, err := ParseString("task a R 1 0\n$anchor -> a [5,9]\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Constraints[0].From != model.Anchor {
		t.Fatalf("constraint = %+v", p.Constraints[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bogus directive":            "bogus x y",
		"task arity":                 "task a R 1",
		"task bad delay":             "task a R x 1",
		"task bad power":             "task a R 1 x",
		"pmax arity":                 "pmax",
		"pmax bad value":             "pmax watts",
		"window no bracket":          "task a R 1 0\ntask b R 1 0\na -> b 5",
		"window no comma":            "task a R 1 0\ntask b R 1 0\na -> b [5]",
		"window bad min":             "task a R 1 0\ntask b R 1 0\na -> b [x,]",
		"window bad max":             "task a R 1 0\ntask b R 1 0\na -> b [1,x]",
		"precede arity":              "precede a",
		"release bad time":           "task a R 1 0\nrelease a x",
		"unknown task in constraint": "task a R 1 0\na -> zz [1,]",
		"no tasks at all":            "problem empty",
	}
	for name, text := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseString(text); err == nil {
				t.Fatalf("accepted %q", text)
			}
		})
	}
}

func TestParseReportsLineNumbers(t *testing.T) {
	_, err := ParseString("problem x\n\nbogus\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want line 3", err)
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	p, err := ParseString("# leading\n\ntask a R 1 2 # trailing comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tasks) != 1 || p.Tasks[0].Power != 2 {
		t.Fatalf("tasks = %+v", p.Tasks)
	}
}

func randomProblem(seed int64) *model.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &model.Problem{Name: "rt", BasePower: float64(rng.Intn(4))}
	n := 2 + rng.Intn(6)
	for i := 0; i < n; i++ {
		p.AddTask(model.Task{
			Name:     "t" + string(rune('a'+i)),
			Resource: "R" + string(rune('0'+rng.Intn(3))),
			Delay:    1 + rng.Intn(9),
			Power:    float64(rng.Intn(16)) / 2,
		})
	}
	for k := 0; k < rng.Intn(6); k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		min := rng.Intn(10)
		if rng.Intn(2) == 0 {
			p.Window(p.Tasks[i].Name, p.Tasks[j].Name, min, min+rng.Intn(20))
		} else {
			p.MinSep(p.Tasks[i].Name, p.Tasks[j].Name, min)
		}
	}
	p.Pmax = 40
	p.Pmin = float64(rng.Intn(30))
	return p
}

// TestQuickTextRoundTrip: Format followed by Parse reproduces the
// problem exactly, for random problems.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		p := randomProblem(seed)
		if p.Validate() != nil {
			return true // generator made something invalid; skip
		}
		q, err := ParseString(Format(p))
		if err != nil {
			return false
		}
		return problemsEqual(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickJSONRoundTrip mirrors the text round-trip through JSON.
func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		p := randomProblem(seed)
		if p.Validate() != nil {
			return true
		}
		data, err := MarshalJSON(p)
		if err != nil {
			return false
		}
		q, err := UnmarshalJSON(data)
		if err != nil {
			return false
		}
		return problemsEqual(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func problemsEqual(a, b *model.Problem) bool {
	if a.Name != b.Name || a.Pmax != b.Pmax || a.Pmin != b.Pmin || a.BasePower != b.BasePower {
		return false
	}
	if len(a.Tasks) != len(b.Tasks) || len(a.Constraints) != len(b.Constraints) {
		return false
	}
	if len(a.Machines) != len(b.Machines) {
		return false
	}
	for i := range a.Machines {
		if a.Machines[i] != b.Machines[i] {
			return false
		}
	}
	for i := range a.Tasks {
		if !reflect.DeepEqual(a.Tasks[i], b.Tasks[i]) {
			return false
		}
	}
	for i := range a.Constraints {
		if a.Constraints[i] != b.Constraints[i] {
			return false
		}
	}
	return true
}

func TestWriteAndParseFile(t *testing.T) {
	p := randomProblem(7)
	path := t.TempDir() + "/x.spec"
	if err := WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	q, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !problemsEqual(p, q) {
		t.Fatal("file round-trip mismatch")
	}
	if _, err := ParseFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestUnmarshalJSONValidates(t *testing.T) {
	if _, err := UnmarshalJSON([]byte(`{"Tasks":[{"Name":"a","Resource":"R","Delay":0}]}`)); err == nil {
		t.Fatal("invalid problem accepted from JSON")
	}
	if _, err := UnmarshalJSON([]byte(`{nope`)); err == nil {
		t.Fatal("syntax error accepted")
	}
}
