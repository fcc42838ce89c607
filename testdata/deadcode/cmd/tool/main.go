// Command tool is a root: it alone keeps lib.UsedByCmd alive.
package main

import "fixture/internal/lib"

func main() { println(lib.UsedByCmd()) }
