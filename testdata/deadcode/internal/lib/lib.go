// Package lib holds one declaration per case the reachability test over
// internal/ must get right.
package lib

// UsedByCmd is referenced only from cmd/tool.
func UsedByCmd() int { return helper() }

// helper is reached through a bare name in a reached declaration.
func helper() int { return 1 }

// UsedByBench is referenced only from bench/demo.
var UsedByBench = 2

// Reached is used by bench/demo, so its methods are kept.
type Reached struct{}

// Method is kept with its receiver type, and so is what it references.
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
