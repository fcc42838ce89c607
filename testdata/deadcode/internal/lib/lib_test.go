package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	if (Reached{}).OnlyTests() != 5 {
		t.Fatal("OnlyTests")
	}
}
