package dataflow

// Hooks for the external test package, which can import the topology
// generator (an importer of this package) where in-package tests cannot.

// DiffReference holds the compiled structure, analysis and synthesis of g
// to the map-keyed reference oracle and describes the first difference.
var DiffReference = diffReference

// Visited reports how many output interfaces the last Analyze worked
// through.
func (inc *Incremental) Visited() int { return inc.visited }

// Planned reports how many components the last Synthesize planned.
func (inc *Incremental) Planned() int { return inc.planned }
