// Command tool is a root: it alone keeps lib.UsedByCmd alive, and it
// calls Area through lib.Shape, String through fmt and a Box's Get.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{}
	fmt.Println(lib.UsedByCmd(), s.Area(), lib.Named{}, lib.Box[int]{}.Get())
}
