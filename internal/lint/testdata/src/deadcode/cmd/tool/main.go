// Command tool is the fixture module's program: main is a root.
package main

import "deadcode/internal/engine"

func main() { _ = engine.ForTool() }

func unusedFlag() bool { return false } // want `main\.unusedFlag is reached from no program root`
