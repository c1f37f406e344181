// Package deadcode is the root package of the fixture module "deadcode":
// its exported identifiers are the module's public API.
package deadcode

import "deadcode/internal/engine"

// Engine re-exports the engine type; the exported methods of an aliased
// type are public API even though no code here calls them.
type Engine = engine.Engine

// New is public API, and it reaches a chain of helpers.
func New() *Engine { return engine.New(helper()) }

func helper() int { return leaf() }

func leaf() int { return 1 }

// deadA's only caller is itself dead, so both are reported.
func deadA() int { return deadB() } // want `deadcode\.deadA is reached from no program root`

func deadB() int { return 2 } // want `deadcode\.deadB is reached from no program root`

func init() { fromInit() }

func fromInit() {}

// A package-level variable's initializer runs at start-up, so what it
// calls is reached even when the variable is blank.
var _ = build()

func build() int { return 3 }

// unusedVar is initialized (its initializer is a root) but never read.
var unusedVar = leaf() // want `deadcode\.unusedVar is reached from no program root`

type shape interface{ area() float64 }

type square struct{ side float64 }

// area is only ever called through shape.
func (s square) area() float64 { return s.side * s.side }

func (s square) perimeter() float64 { return 4 * s.side } // want `deadcode\.square\.perimeter is reached from no program root`

var _ shape = square{}

// String is called implicitly by fmt, so a reached type keeps it.
func (s square) String() string { return "square" }

// oracle is a reference another package's tests compare against.
//
//vmprov:allow deadcode -- TestOracle in a sibling package compares against it
func oracle() int { return 4 }
