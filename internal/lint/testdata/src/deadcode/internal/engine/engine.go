// Package engine is an internal package of the fixture module: only what
// the facade, a main or an init reaches of it is live.
package engine

// Engine is aliased by the facade.
type Engine struct{ n int }

// New is called by the facade.
func New(n int) *Engine { return &Engine{n: n} }

// Run is an exported method of a type the facade's API reaches: a root.
func (e *Engine) Run() int { return e.step() }

func (e *Engine) step() int { return e.n }

func (e *Engine) debug() int { return -e.n } // want `engine\.Engine\.debug is reached from no program root`

// Unused is exported, but this is not the facade package.
func Unused() {} // want `engine\.Unused is reached from no program root`

// ForTool is called only by the fixture's main package.
func ForTool() int { return 5 }

type orphan struct{} // want `engine\.orphan is reached from no program root`

func (orphan) Do() {} // want `engine\.orphan\.Do is reached from no program root`
