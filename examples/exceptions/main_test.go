package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestExceptionsExample(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("example failed: %v", err)
	}
	for _, want := range []string{
		"interpreter faults at pc=",
		"§3.5 scan -> 0x20 (per-VLIW) / 0x20 (group-entry walk)",
		"DAISY faults at pc=",
		"precise: identical fault point, instruction count and architected state.",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
