package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// checkRows verifies that render A's table of experiment id has at
// least the rows its claim needs. (Its findings and alarms are
// checked for every experiment by TestSuiteDeterministicAcrossWorkers,
// and every byte of it by the goldens.)
func checkRows(t *testing.T, id string, want int) {
	t.Helper()
	if got := len(renderA.get(t).report(t, id).Table.Rows); got < want {
		t.Errorf("%s: %d rows, want >= %d", id, got, want)
	}
}

func TestE1(t *testing.T)  { checkRows(t, "E1", 4) }
func TestE2(t *testing.T)  { checkRows(t, "E2", 5) }
func TestE3(t *testing.T)  { checkRows(t, "E3", 5) }
func TestE4(t *testing.T)  { checkRows(t, "E4", 2) }
func TestE5(t *testing.T)  { checkRows(t, "E5", 3) }
func TestE6(t *testing.T)  { checkRows(t, "E6", 5) }
func TestE7(t *testing.T)  { checkRows(t, "E7", 4) }
func TestE8(t *testing.T)  { checkRows(t, "E8", 2) }
func TestE9(t *testing.T)  { checkRows(t, "E9", 5) }
func TestE10(t *testing.T) { checkRows(t, "E10", 5) }
func TestE11(t *testing.T) { checkRows(t, "E11", 9) }
func TestE12(t *testing.T) { checkRows(t, "E12", 4) }
func TestE13(t *testing.T) { checkRows(t, "E13", 2) }
func TestE14(t *testing.T) { checkRows(t, "E14", 3) }
func TestE15(t *testing.T) { checkRows(t, "E15", 6) }
func TestE16(t *testing.T) { checkRows(t, "E16", 3) }
func TestE17(t *testing.T) { checkRows(t, "E17", 4) }
func TestE18(t *testing.T) { checkRows(t, "E18", 4) }
func TestE19(t *testing.T) { checkRows(t, "E19", 7) }
func TestE20(t *testing.T) { checkRows(t, "E20", 3) }
func TestE21(t *testing.T) { checkRows(t, "E21", 4) }
func TestE22(t *testing.T) { checkRows(t, "E22", 9) }
func TestE23(t *testing.T) { checkRows(t, "E23", 5) }
func TestE24(t *testing.T) { checkRows(t, "E24", 4) }
func TestE25(t *testing.T) { checkRows(t, "E25", 3) }
func TestE26(t *testing.T) { checkRows(t, "E26", 4) }
func TestE27(t *testing.T) { checkRows(t, "E27", 6) }

func TestAllRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 34 {
		t.Fatalf("registry has %d experiments, want 34", len(all))
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("reading EXPERIMENTS.md: %v", err)
	}
	seen := map[string]bool{}
	for _, r := range all {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Fatalf("incomplete experiment %+v", r)
		}
		if len(r.Tags) == 0 {
			t.Fatalf("%s has no tags", r.ID)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
		// Every registered experiment must be documented: EXPERIMENTS.md
		// is the companion index of claims vs outcomes. Anchor to a
		// '### ' heading (possibly shared, e.g. '### E4 / E5 — ...')
		// so an incidental mention in prose does not satisfy the check.
		heading := regexp.MustCompile(`(?m)^### .*\b` + regexp.QuoteMeta(r.ID) + `\b`)
		if !heading.Match(doc) {
			t.Errorf("%s is registered but has no '### %s' section in EXPERIMENTS.md", r.ID, r.ID)
		}
		// The suite runner scopes each experiment's recorder, and so
		// its trace events and manifest node, by the ID, so IDs must
		// stay plain E<number> tokens — anything else would produce
		// scopes that filters and dashboards can't address.
		if !regexp.MustCompile(`^E\d+$`).MatchString(r.ID) {
			t.Errorf("id %q is not a plain E<number> token (breaks recorder scoping)", r.ID)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:      "T",
		Caption: "caption",
		Columns: []string{"a", "long-column"},
	}
	tb.AddRow(1.23456789, "x")
	tb.AddRow("str", 7)
	tb.AddFinding("finding %d", 42)
	s := tb.String()
	for _, want := range []string{"T — caption", "long-column", "1.235", "finding 42", "=>"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}
