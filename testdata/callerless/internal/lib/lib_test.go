package lib

import "testing"

func TestArea(t *testing.T) {
	if got := (Square{Side: 2}).Area(); got != 4 {
		t.Errorf("Area = %v, want 4", got)
	}
}
