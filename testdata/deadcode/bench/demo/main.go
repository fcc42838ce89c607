// Command demo is a root: it alone keeps lib.UsedByBench and
// lib.Reached alive.
package main

import "fixture/internal/lib"

func main() {
	var r lib.Reached
	println(r.Method(), lib.UsedByBench)
}
