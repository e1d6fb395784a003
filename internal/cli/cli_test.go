package cli

import (
	"reflect"
	"testing"
)

func TestFloats(t *testing.T) {
	got, err := Floats("1, 2.5 ,8", true)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2.5, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Floats = %v, want %v", got, want)
	}
	if _, err := Floats("1,x", true); err == nil {
		t.Fatal("want error for non-numeric item")
	}
	if _, err := Floats("1,,2", true); err == nil {
		t.Fatal("want error for blank item")
	}
	if _, err := Floats("1,-2", true); err == nil {
		t.Fatal("want error for non-positive item with positive=true")
	}
	for _, bad := range []string{"1,NaN", "Inf", "-Inf,2", "+Inf"} {
		if _, err := Floats(bad, false); err == nil {
			t.Errorf("Floats(%q) accepted a non-finite value", bad)
		}
	}
	if got, err := Floats("0,-3", false); err != nil || len(got) != 2 {
		t.Fatalf("Floats(positive=false) = %v, %v", got, err)
	}
}

func TestInts(t *testing.T) {
	got, err := Ints("0, 2,4")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Ints = %v, want %v", got, want)
	}
	if out, err := Ints(""); err != nil || out != nil {
		t.Fatalf("Ints(\"\") = %v, %v; want nil, nil", out, err)
	}
	if _, err := Ints("1,two"); err == nil {
		t.Fatal("want error for non-numeric item")
	}
}

func TestStrings(t *testing.T) {
	got := Strings("a, b,,c ")
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Strings = %q, want %q", got, want)
	}
	if got := Strings(""); got != nil {
		t.Fatalf("Strings(\"\") = %q, want nil", got)
	}
}
