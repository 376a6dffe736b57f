package bloom

import "fmt"

// MergeOp is a Bloom rule operator: how derived rows reach the head
// collection.
type MergeOp int

const (
	// Instant (<=) merges within the current timestep; rules with instant
	// heads run to fixpoint each tick.
	Instant MergeOp = iota
	// Deferred (<+) inserts at the start of the next timestep.
	Deferred
	// Delete (<-) removes rows at the start of the next timestep — a
	// nonmonotonic operation.
	Delete
	// Async (<~) hands rows to the network: they arrive at the remote (or
	// local) channel in some later timestep, in nondeterministic order.
	Async
)

// String renders the Bloom operator.
func (op MergeOp) String() string {
	switch op {
	case Instant:
		return "<="
	case Deferred:
		return "<+"
	case Delete:
		return "<-"
	case Async:
		return "<~"
	default:
		return fmt.Sprintf("MergeOp(%d)", int(op))
	}
}

// Rule derives rows for a head collection from a body expression.
type Rule struct {
	Head string
	Op   MergeOp
	Body Expr
	// Label is an optional human-readable rule name for diagnostics.
	Label string
}

// String renders the rule.
func (r Rule) String() string {
	if r.Label != "" {
		return fmt.Sprintf("%s %s ... (%s)", r.Head, r.Op, r.Label)
	}
	return fmt.Sprintf("%s %s ...", r.Head, r.Op)
}

// Module is a Bloom program unit: declared collections plus rules, with
// designated input and output interfaces (Section VII-A: modules map
// naturally to dataflow components).
type Module struct {
	Name  string
	colls map[string]*Collection
	order []string
	rules []Rule
	// gen counts the declarations and rules added, so that a released node
	// compiled before the last of them is never taken up again.
	gen uint64
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, colls: map[string]*Collection{}}
}

// Declare adds a collection.
func (m *Module) Declare(name string, kind Kind, schema ...string) *Module {
	if _, dup := m.colls[name]; !dup {
		m.order = append(m.order, name)
	}
	m.colls[name] = &Collection{Name: name, Kind: kind, Schema: Schema(schema)}
	m.gen++
	return m
}

// Input declares an input interface collection.
func (m *Module) Input(name string, schema ...string) *Module {
	return m.Declare(name, Input, schema...)
}

// Output declares an output interface collection.
func (m *Module) Output(name string, schema ...string) *Module {
	return m.Declare(name, Output, schema...)
}

// Table declares a persistent table.
func (m *Module) Table(name string, schema ...string) *Module {
	return m.Declare(name, Table, schema...)
}

// Scratch declares a transient scratch.
func (m *Module) Scratch(name string, schema ...string) *Module {
	return m.Declare(name, Scratch, schema...)
}

// Channel declares an asynchronous network channel.
func (m *Module) Channel(name string, schema ...string) *Module {
	return m.Declare(name, Channel, schema...)
}

// Rule appends a rule head op body.
func (m *Module) Rule(head string, op MergeOp, body Expr) *Module {
	m.rules = append(m.rules, Rule{Head: head, Op: op, Body: body})
	m.gen++
	return m
}

// NamedRule appends a labelled rule.
func (m *Module) NamedRule(label, head string, op MergeOp, body Expr) *Module {
	m.rules = append(m.rules, Rule{Head: head, Op: op, Body: body, Label: label})
	m.gen++
	return m
}

// Collection returns the named collection, or nil.
func (m *Module) Collection(name string) *Collection { return m.colls[name] }

// Collections returns declarations in declaration order.
func (m *Module) Collections() []*Collection {
	out := make([]*Collection, len(m.order))
	for i, n := range m.order {
		out[i] = m.colls[n]
	}
	return out
}

// Rules returns the module's rules.
func (m *Module) Rules() []Rule { return append([]Rule(nil), m.rules...) }

// Inputs returns input interface names in declaration order.
func (m *Module) Inputs() []string { return m.byKind(Input) }

// Outputs returns output interface names in declaration order.
func (m *Module) Outputs() []string { return m.byKind(Output) }

func (m *Module) byKind(k Kind) []string {
	var out []string
	for _, n := range m.order {
		if m.colls[n].Kind == k {
			out = append(out, n)
		}
	}
	return out
}

// Validate checks every rule: its head, and through the body's Schema every
// collection and column the body names. A module that validates compiles:
// NewNode refuses it only if it does not stratify.
func (m *Module) Validate() error {
	if len(m.rules) == 0 {
		return fmt.Errorf("bloom: module %q has no rules", m.Name)
	}
	for _, c := range m.Collections() {
		if err := checkNoDupCols(c.Schema, "collection", c.Name); err != nil {
			return fmt.Errorf("bloom: module %q: %w", m.Name, err)
		}
	}
	for i, r := range m.rules {
		head := m.colls[r.Head]
		if head == nil {
			return fmt.Errorf("bloom: module %q rule %d: unknown head %q", m.Name, i, r.Head)
		}
		bodySchema, err := r.Body.Schema(m)
		if err != nil {
			return fmt.Errorf("bloom: module %q rule %d: %w", m.Name, i, err)
		}
		if len(bodySchema) != len(head.Schema) {
			return fmt.Errorf("bloom: module %q rule %d: body schema %v does not match head %q schema %v",
				m.Name, i, bodySchema, r.Head, head.Schema)
		}
		if head.Kind == Input {
			return fmt.Errorf("bloom: module %q rule %d: cannot write input interface %q", m.Name, i, r.Head)
		}
		if r.Op == Async && head.Kind != Channel && head.Kind != Output {
			return fmt.Errorf("bloom: module %q rule %d: async merge into non-channel %q", m.Name, i, r.Head)
		}
	}
	return nil
}
