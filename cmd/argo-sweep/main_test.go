package main

import (
	"slices"
	"strings"
	"testing"
)

// TestKnobUsageNamesTheTable: -knob's usage string names exactly the knobs of
// the table, in its order.
func TestKnobUsageNamesTheTable(t *testing.T) {
	listed := strings.Split(strings.TrimPrefix(knobUsage, "knob to sweep: "), "|")
	var table []string
	for _, k := range knobs {
		table = append(table, k.name)
	}
	if !slices.Equal(listed, table) {
		t.Fatalf("-knob usage %q names %v, the table holds %v", knobUsage, listed, table)
	}
}
