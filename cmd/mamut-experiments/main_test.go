package main

import (
	"reflect"
	"strings"
	"testing"

	"mamut/internal/experiments"
)

// TestParseArgsSelection: -exp picks named experiments, "all" picks
// every one, and an unknown name is an error naming the flag instead of
// a run that does nothing.
func TestParseArgsSelection(t *testing.T) {
	for _, row := range []struct {
		exp  string
		want []string
	}{
		{"fig4,table1", []string{"fig4", "table1"}},
		{" ablation ", []string{"ablation"}},
		{"all", experimentNames},
	} {
		inv, err := parseArgs([]string{"-exp", row.exp})
		if err != nil {
			t.Fatalf("-exp %q: %v", row.exp, err)
		}
		want := map[string]bool{}
		for _, name := range row.want {
			want[name] = true
		}
		if !reflect.DeepEqual(inv.selected, want) {
			t.Errorf("-exp %q selected %v, want %v", row.exp, inv.selected, want)
		}
	}
	for _, exp := range []string{"fig9", "fig2,fig9", "fig2,", ""} {
		if _, err := parseArgs([]string{"-exp", exp}); err == nil || !strings.Contains(err.Error(), "-exp") {
			t.Errorf("-exp %q: got error %v, want one naming -exp", exp, err)
		}
	}
}

// TestParseArgsCounts: -reps overrides the default repetitions, 0 keeps
// them, and a negative count is an error naming its flag instead of a
// silent fallback.
func TestParseArgsCounts(t *testing.T) {
	inv, err := parseArgs([]string{"-quick", "-reps", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if inv.opts.Repetitions != 3 {
		t.Errorf("-reps 3 gave %d repetitions", inv.opts.Repetitions)
	}
	if inv, err = parseArgs([]string{"-quick", "-reps", "0"}); err != nil {
		t.Fatal(err)
	}
	if want := experiments.QuickOptions().Repetitions; inv.opts.Repetitions != want {
		t.Errorf("-reps 0 gave %d repetitions, want the default %d", inv.opts.Repetitions, want)
	}
	for _, args := range [][]string{{"-reps", "-3"}, {"-workers", "-1"}} {
		if _, err := parseArgs(args); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: got error %v, want one naming %s", args, err, args[0])
		}
	}
}
