// Package lib holds one declaration per case the reachability test over
// internal/ must get right.
package lib

// UsedByCmd is referenced only from cmd/tool.
func UsedByCmd() int { return helper() }

// helper is reached through a bare name in a reached declaration.
func helper() int { return 1 }

// UsedByBench is referenced only from bench/demo.
var UsedByBench = 2

// Reached is used by bench/demo.
type Reached struct{}

// Method is called by bench/demo, so it is kept with what it references.
func (Reached) Method() int { return viaMethod }

const viaMethod = 3

func init() { _ = viaInit }

var viaInit = 4

// Allowed is reached by nothing; the test allowlists it.
func Allowed() {}

func DeadFunc() {}

type DeadType struct{}

var DeadVar int

const DeadConst = 1

// Iface and Asserted are tied only by a blank assertion, which is no use.
type Iface interface{ M() }

type Asserted struct{}

func (*Asserted) M() {}

var _ Iface = (*Asserted)(nil)

// OnlyTests is called by lib_test.go alone: a reached type's method that
// no program calls is dead.
func (r Reached) OnlyTests() int { return r.viaDead() }

// viaDead is called only by a dead method.
func (Reached) viaDead() int { return 5 }

// Shape's Area is called through the interface by cmd/tool, which keeps
// Square.Area though nothing names it.
type Shape interface{ Area() int }

type Square struct{}

func (Square) Area() int { return 6 }

// Named's String is called by fmt alone.
type Named struct{}

func (Named) String() string { return "named" }

// Public is aliased by the fixture's root package, so every method of it
// is public surface.
type Public struct{}

func (Public) Surface() int { return 7 }

// Box's Get is called on an instantiation by cmd/tool.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }
