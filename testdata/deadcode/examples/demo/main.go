// Command demo is a root: it alone keeps lib.UsedByExample and
// lib.Reached alive.
package main

import "fixture/internal/lib"

func main() {
	var r lib.Reached
	println(r.Method(), lib.UsedByExample)
}
