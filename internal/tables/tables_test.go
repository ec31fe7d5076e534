package tables

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := New("Demo", "name", "watts", "delta")
	tb.MustAddRow("heuristic", "96.0", "34.7")
	tb.MustAddRow("mamut", "88.4", "3.9")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "heuristic") {
		t.Errorf("render output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
}

func TestTableArityChecked(t *testing.T) {
	tb := New("", "a", "b")
	if err := tb.AddRow("1"); err == nil {
		t.Error("short row accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow did not panic")
		}
	}()
	tb.MustAddRow("1", "2", "3")
}

func TestTableCSV(t *testing.T) {
	tb := New("x", "a", "b")
	tb.MustAddRow("1", "two, with comma")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("csv = %q", out)
	}
	if !strings.Contains(out, `"two, with comma"`) {
		t.Errorf("csv quoting broken: %q", out)
	}
}

func TestF(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Error("F formatting wrong")
	}
	if F(10, 0) != "10" {
		t.Error("F zero decimals wrong")
	}
}
