package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "Program", "ILP", "Count")
	tb.Row("compress", 6.5, uint64(1234567))
	tb.Row("wc", 3.0, uint64(12))
	out := tb.String()
	for _, want := range []string{"Table X", "Program", "compress", "6.50", "1,234,567", "3.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if tb.Rows() != 2 {
		t.Fatal("row count")
	}
}

func TestComma(t *testing.T) {
	cases := map[uint64]string{
		0: "0", 7: "7", 999: "999", 1000: "1,000",
		1234567: "1,234,567", 45693050: "45,693,050",
	}
	for n, want := range cases {
		if got := Comma(n); got != want {
			t.Errorf("Comma(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestMeans(t *testing.T) {
	xs := []float64{2, 8}
	if Mean(xs) != 5 {
		t.Fatal("mean")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
}

// TestCSVGolden pins the CSV renderer byte-for-byte: the paper harness
// archives these files in run folders, so format drift must be explicit.
func TestCSVGolden(t *testing.T) {
	tb := NewTable("Title ignored in CSV", "Program", "ILP", "Note")
	tb.Row("compress", 3.19, "ok")
	tb.Row(`quote"y`, 1000.0, "a,b")
	want := "Program,ILP,Note\n" +
		"compress,3.19,ok\n" +
		"\"quote\"\"y\",1000,\"a,b\"\n"
	if got := tb.CSV(); got != want {
		t.Errorf("CSV golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMarkdownGolden pins the markdown renderer byte-for-byte.
func TestMarkdownGolden(t *testing.T) {
	tb := NewTable("Table X", "Program", "ILP")
	tb.Row("wc", 3.09)
	tb.Row("a|b", 1.0)
	tb.Row("(mean)") // short row pads to the full column count
	want := "**Table X**\n\n" +
		"| Program | ILP |\n" +
		"|---|---|\n" +
		"| wc | 3.09 |\n" +
		"| a\\|b | 1.00 |\n" +
		"| (mean) |  |\n"
	if got := tb.Markdown(); got != want {
		t.Errorf("markdown golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestCells(t *testing.T) {
	tb := NewTable("t", "A", "B")
	tb.Row(1, 2)
	cells := tb.Cells()
	if len(cells) != 2 || cells[0][0] != "A" || cells[1][1] != "2" {
		t.Fatalf("cells: %v", cells)
	}
	cells[1][0] = "mutated"
	if tb.Cells()[1][0] != "1" {
		t.Fatal("Cells must return copies")
	}
}

func TestFormatInts(t *testing.T) {
	tb := NewTable("", "A")
	tb.Row(3)
	tb.Row(123456)
	tb.Row(1e6)
	out := tb.String()
	if !strings.Contains(out, "123,456") || !strings.Contains(out, "1000000") {
		t.Errorf("int formatting:\n%s", out)
	}
}
