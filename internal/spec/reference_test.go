package spec

// The tree parser the product used until the single-pass parser in parse.go
// replaced it, kept verbatim as the differential oracle of FuzzParseSpec:
// ParseDocument builds a Value/*Map tree, referenceParse walks it into a
// Config. It differs from the code it was lifted from only where the product
// changed on purpose: Variants is allocated on first use, byName holds
// indices, a non-string name/from/to/label is rejected instead of being read
// as "", and joining wrapped lines is linear (see refJoinContinuations).

import (
	"fmt"
	"strings"
)

// Value is a parsed YAML-subset value: string, bool, []Value, or *Map.
type Value interface{}

// Map is an insertion-ordered string-keyed map.
type Map struct {
	keys   []string
	values map[string]Value
}

// NewMap returns an empty ordered map.
func NewMap() *Map { return &Map{values: map[string]Value{}} }

// Set inserts or replaces a key.
func (m *Map) Set(key string, v Value) {
	if _, ok := m.values[key]; !ok {
		m.keys = append(m.keys, key)
	}
	m.values[key] = v
}

// Get returns the value for key.
func (m *Map) Get(key string) (Value, bool) {
	v, ok := m.values[key]
	return v, ok
}

// Keys returns the keys in insertion order.
func (m *Map) Keys() []string { return m.keys }

// Len reports the number of entries.
func (m *Map) Len() int { return len(m.keys) }

type refLine struct {
	num    int
	indent int
	text   string // trimmed content
}

// ParseDocument parses a full document into an ordered map.
func ParseDocument(src string) (*Map, error) {
	lines, err := refSplitLines(src)
	if err != nil {
		return nil, err
	}
	lines = refJoinContinuations(lines)
	v, next, err := refParseBlock(lines, 0, 0)
	if err != nil {
		return nil, err
	}
	if next != len(lines) {
		return nil, fmt.Errorf("spec: line %d: unexpected content %q", lines[next].num, lines[next].text)
	}
	m, ok := v.(*Map)
	if !ok {
		return nil, fmt.Errorf("spec: document root must be a mapping")
	}
	return m, nil
}

func refSplitLines(src string) ([]refLine, error) {
	var out []refLine
	for i, raw := range strings.Split(src, "\n") {
		stripped := refStripComment(raw)
		trimmed := strings.TrimSpace(stripped)
		if trimmed == "" {
			continue
		}
		indent := 0
		for _, r := range stripped {
			if r == ' ' {
				indent++
			} else if r == '\t' {
				return nil, fmt.Errorf("spec: line %d: tabs are not allowed for indentation", i+1)
			} else {
				break
			}
		}
		out = append(out, refLine{num: i + 1, indent: indent, text: trimmed})
	}
	return out, nil
}

// joinContinuations merges lines whose flow collections ({...}, [...]) are
// still open onto the following lines — the paper's configuration files wrap
// long inline maps across lines. (The product's version rescanned and
// recopied the joined text for every line it added; the oracle carries the
// scan state and builds the text once, or a fuzz input with one unclosed
// bracket above a thousand lines takes seconds.)
func refJoinContinuations(lines []refLine) []refLine {
	var out []refLine
	for i := 0; i < len(lines); i++ {
		cur := lines[i]
		st := refFlowDepth(cur.text, refFlow{})
		if st.depth > 0 && i+1 < len(lines) {
			var b strings.Builder
			b.WriteString(cur.text)
			for st.depth > 0 && i+1 < len(lines) {
				i++
				b.WriteString(" " + lines[i].text)
				st = refFlowDepth(lines[i].text, st)
			}
			cur.text = b.String()
		}
		out = append(out, cur)
	}
	return out
}

type refFlow struct {
	depth              int
	inSingle, inDouble bool
}

// flowDepth counts unbalanced flow-collection delimiters outside quotes,
// continuing from st.
func refFlowDepth(s string, st refFlow) refFlow {
	depth, inSingle, inDouble := st.depth, st.inSingle, st.inDouble
	for _, r := range s {
		switch r {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case '{', '[':
			if !inSingle && !inDouble {
				depth++
			}
		case '}', ']':
			if !inSingle && !inDouble {
				depth--
			}
		}
	}
	return refFlow{depth, inSingle, inDouble}
}

// stripComment removes a trailing # comment that is not inside quotes.
func refStripComment(s string) string {
	inSingle, inDouble := false, false
	for i, r := range s {
		switch r {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case '#':
			if !inSingle && !inDouble && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t') {
				return s[:i]
			}
		}
	}
	return s
}

// parseBlock parses consecutive lines at exactly the given indent into a map
// or list, returning the value and the index of the first unconsumed line.
func refParseBlock(lines []refLine, i, indent int) (Value, int, error) {
	if i >= len(lines) {
		return NewMap(), i, nil
	}
	if strings.HasPrefix(lines[i].text, "- ") || lines[i].text == "-" {
		return refParseList(lines, i, indent)
	}
	return refParseMap(lines, i, indent)
}

func refParseList(lines []refLine, i, indent int) (Value, int, error) {
	var items []Value
	for i < len(lines) && lines[i].indent == indent &&
		(strings.HasPrefix(lines[i].text, "- ") || lines[i].text == "-") {
		rest := strings.TrimSpace(strings.TrimPrefix(lines[i].text, "-"))
		if rest == "" {
			return nil, i, fmt.Errorf("spec: line %d: empty list items are not supported", lines[i].num)
		}
		v, err := refParseInline(rest, lines[i].num)
		if err != nil {
			return nil, i, err
		}
		items = append(items, v)
		i++
	}
	return items, i, nil
}

func refParseMap(lines []refLine, i, indent int) (Value, int, error) {
	m := NewMap()
	for i < len(lines) && lines[i].indent == indent && !strings.HasPrefix(lines[i].text, "- ") {
		key, rest, err := refSplitKey(lines[i].text, lines[i].num)
		if err != nil {
			return nil, i, err
		}
		if _, dup := m.Get(key); dup {
			return nil, i, fmt.Errorf("spec: line %d: duplicate key %q", lines[i].num, key)
		}
		if rest != "" {
			v, err := refParseInline(rest, lines[i].num)
			if err != nil {
				return nil, i, err
			}
			m.Set(key, v)
			i++
			continue
		}
		// Nested block: child lines with deeper indent, or — as YAML
		// allows and the paper's files use — a list whose "- " items sit
		// at the same indent as the key.
		i++
		switch {
		case i < len(lines) && lines[i].indent > indent:
			child, next, err := refParseBlock(lines, i, lines[i].indent)
			if err != nil {
				return nil, i, err
			}
			m.Set(key, child)
			i = next
		case i < len(lines) && lines[i].indent == indent && strings.HasPrefix(lines[i].text, "- "):
			child, next, err := refParseList(lines, i, indent)
			if err != nil {
				return nil, i, err
			}
			m.Set(key, child)
			i = next
		default:
			m.Set(key, "")
		}
	}
	if i < len(lines) && lines[i].indent > indent {
		return nil, i, fmt.Errorf("spec: line %d: unexpected indentation", lines[i].num)
	}
	return m, i, nil
}

// splitKey splits "key: rest" respecting quotes and flow delimiters.
func refSplitKey(s string, num int) (key, rest string, err error) {
	depth := 0
	inSingle, inDouble := false, false
	for i, r := range s {
		switch r {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case '{', '[':
			if !inSingle && !inDouble {
				depth++
			}
		case '}', ']':
			if !inSingle && !inDouble {
				depth--
			}
		case ':':
			if inSingle || inDouble || depth > 0 {
				continue
			}
			if i+1 < len(s) && s[i+1] != ' ' {
				continue // e.g. a URL-ish scalar; treat as part of key text
			}
			return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:]), nil
		}
	}
	if strings.HasSuffix(s, ":") {
		return strings.TrimSpace(s[:len(s)-1]), "", nil
	}
	return "", "", fmt.Errorf("spec: line %d: expected \"key: value\", got %q", num, s)
}

// parseInline parses a scalar, flow map, or flow list.
func refParseInline(s string, num int) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "{"):
		return parseFlowMap(s, num)
	case strings.HasPrefix(s, "["):
		return parseFlowList(s, num)
	default:
		return refParseScalar(s), nil
	}
}

func refParseScalar(s string) Value {
	s = strings.TrimSpace(s)
	if len(s) >= 2 {
		if (s[0] == '\'' && s[len(s)-1] == '\'') || (s[0] == '"' && s[len(s)-1] == '"') {
			return s[1 : len(s)-1]
		}
	}
	switch strings.ToLower(s) {
	case "true", "yes", "on":
		return true
	case "false", "no", "off":
		return false
	}
	return s
}

func parseFlowMap(s string, num int) (Value, error) {
	inner, err := refStripDelims(s, '{', '}', num)
	if err != nil {
		return nil, err
	}
	m := NewMap()
	for _, part := range splitTop(inner) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, rest, err := refSplitKey(part, num)
		if err != nil {
			return nil, err
		}
		v, err := refParseInline(rest, num)
		if err != nil {
			return nil, err
		}
		m.Set(key, v)
	}
	return m, nil
}

func parseFlowList(s string, num int) (Value, error) {
	inner, err := refStripDelims(s, '[', ']', num)
	if err != nil {
		return nil, err
	}
	var items []Value
	for _, part := range splitTop(inner) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := refParseInline(part, num)
		if err != nil {
			return nil, err
		}
		items = append(items, v)
	}
	return items, nil
}

func refStripDelims(s string, open, close rune, num int) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || rune(s[0]) != open || rune(s[len(s)-1]) != close {
		return "", fmt.Errorf("spec: line %d: malformed flow collection %q", num, s)
	}
	return s[1 : len(s)-1], nil
}

// splitTop splits on commas at the top nesting level.
func splitTop(s string) []string {
	var parts []string
	depth := 0
	inSingle, inDouble := false, false
	start := 0
	for i, r := range s {
		switch r {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case '{', '[':
			if !inSingle && !inDouble {
				depth++
			}
		case '}', ']':
			if !inSingle && !inDouble {
				depth--
			}
		case ',':
			if depth == 0 && !inSingle && !inDouble {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}

// referenceParse is the old Parse: tree first, then the walk.
func referenceParse(src string) (*Config, error) {
	doc, err := ParseDocument(src)
	if err != nil {
		return nil, err
	}
	cfg := &Config{byName: map[string]int{}}
	for _, key := range doc.Keys() {
		v, _ := doc.Get(key)
		if key == keyTopology {
			if err := refParseTopology(cfg, v); err != nil {
				return nil, err
			}
			continue
		}
		comp, err := refParseComponent(key, v)
		if err != nil {
			return nil, err
		}
		cfg.Components = append(cfg.Components, comp)
	}
	for i := range cfg.Components {
		cfg.byName[cfg.Components[i].Name] = i
	}
	return cfg, nil
}

func refParseComponent(name string, v Value) (ComponentSpec, error) {
	comp := ComponentSpec{Name: name}
	m, ok := v.(*Map)
	if !ok {
		return comp, fmt.Errorf("spec: component %q must be a mapping", name)
	}
	for _, key := range m.Keys() {
		val, _ := m.Get(key)
		switch key {
		case keyRep:
			b, ok := val.(bool)
			if !ok {
				return comp, fmt.Errorf("spec: component %q: Rep must be a boolean", name)
			}
			comp.Rep = b
		case keyAnnotation:
			anns, err := refParseAnnotations(name, val)
			if err != nil {
				return comp, err
			}
			comp.Annotations = append(comp.Annotations, anns...)
		case keySchema:
			schema, err := refParseSchema(name, val)
			if err != nil {
				return comp, err
			}
			comp.Schema = schema
		default:
			// Named variant: value must be a single annotation map.
			am, ok := val.(*Map)
			if !ok {
				return comp, fmt.Errorf("spec: component %q: key %q must be an annotation map", name, key)
			}
			ann, err := refParseAnnotation(name, am)
			if err != nil {
				return comp, err
			}
			if comp.Variants == nil {
				comp.Variants = map[string]AnnotationSpec{}
			}
			comp.Variants[key] = ann
			comp.VariantOrder = append(comp.VariantOrder, key)
		}
	}
	return comp, nil
}

// parseSchema reads the reserved `schema` component key: a mapping from
// output interface name to a list of attribute names. It must be handled
// before the variant fallback — its value is a mapping too, but its inner
// values are lists, not annotation maps.
func refParseSchema(comp string, v Value) (map[string][]string, error) {
	m, ok := v.(*Map)
	if !ok {
		return nil, fmt.Errorf("spec: component %q: schema must be a mapping of interface to attribute list", comp)
	}
	out := map[string][]string{}
	for _, iface := range m.Keys() {
		val, _ := m.Get(iface)
		list, ok := val.([]Value)
		if !ok {
			return nil, fmt.Errorf("spec: component %q: schema for %q must be a list of attribute names", comp, iface)
		}
		attrs := make([]string, 0, len(list))
		for _, item := range list {
			s, ok := item.(string)
			if !ok {
				return nil, fmt.Errorf("spec: component %q: schema attributes for %q must be strings", comp, iface)
			}
			attrs = append(attrs, s)
		}
		out[iface] = attrs
	}
	return out, nil
}

func refParseAnnotations(comp string, v Value) ([]AnnotationSpec, error) {
	switch val := v.(type) {
	case []Value:
		var out []AnnotationSpec
		for _, item := range val {
			m, ok := item.(*Map)
			if !ok {
				return nil, fmt.Errorf("spec: component %q: annotation entries must be maps", comp)
			}
			ann, err := refParseAnnotation(comp, m)
			if err != nil {
				return nil, err
			}
			out = append(out, ann)
		}
		return out, nil
	case *Map:
		ann, err := refParseAnnotation(comp, val)
		if err != nil {
			return nil, err
		}
		return []AnnotationSpec{ann}, nil
	default:
		return nil, fmt.Errorf("spec: component %q: annotation must be a map or list of maps", comp)
	}
}

func refParseAnnotation(comp string, m *Map) (AnnotationSpec, error) {
	var ann AnnotationSpec
	for _, key := range m.Keys() {
		v, _ := m.Get(key)
		switch key {
		case "from", "to", "label":
			s, ok := v.(string)
			if !ok {
				return ann, fmt.Errorf("spec: component %q: %s must be a string", comp, key)
			}
			switch key {
			case "from":
				ann.From = s
			case "to":
				ann.To = s
			default:
				ann.Label = s
			}
		case "subscript":
			list, ok := v.([]Value)
			if !ok {
				return ann, fmt.Errorf("spec: component %q: subscript must be a list", comp)
			}
			for _, item := range list {
				s, ok := item.(string)
				if !ok {
					return ann, fmt.Errorf("spec: component %q: subscript entries must be strings", comp)
				}
				ann.Subscript = append(ann.Subscript, s)
			}
		default:
			return ann, fmt.Errorf("spec: component %q: unknown annotation field %q", comp, key)
		}
	}
	if ann.From == "" || ann.To == "" || ann.Label == "" {
		return ann, fmt.Errorf("spec: component %q: annotation needs from, to and label", comp)
	}
	return ann, nil
}

func refParseTopology(c *Config, v Value) error {
	m, ok := v.(*Map)
	if !ok {
		return fmt.Errorf("spec: topology must be a mapping")
	}
	for _, section := range m.Keys() {
		val, _ := m.Get(section)
		list, ok := val.([]Value)
		if !ok {
			return fmt.Errorf("spec: topology %s must be a list", section)
		}
		for _, item := range list {
			em, ok := item.(*Map)
			if !ok {
				return fmt.Errorf("spec: topology %s entries must be maps", section)
			}
			st, err := refParseStream(section, em)
			if err != nil {
				return err
			}
			switch section {
			case "sources":
				if st.To == "" {
					return fmt.Errorf("spec: source %q needs `to`", st.Name)
				}
			case "sinks":
				if st.From == "" {
					return fmt.Errorf("spec: sink %q needs `from`", st.Name)
				}
			case "streams":
				if st.From == "" || st.To == "" {
					return fmt.Errorf("spec: stream %q needs `from` and `to`", st.Name)
				}
			default:
				return fmt.Errorf("spec: unknown topology section %q", section)
			}
			c.Streams = append(c.Streams, st)
		}
	}
	return nil
}

func refParseStream(section string, m *Map) (StreamSpec, error) {
	var st StreamSpec
	sealStrings := true
	for _, key := range m.Keys() {
		v, _ := m.Get(key)
		switch key {
		case "name", "from", "to":
			s, ok := v.(string)
			if !ok {
				return st, fmt.Errorf("spec: %s: %s must be a string", section, key)
			}
			switch key {
			case "name":
				st.Name = s
			case "from":
				st.From = s
			default:
				st.To = s
			}
		case "seal":
			list, ok := v.([]Value)
			if !ok {
				return st, fmt.Errorf("spec: %s: seal must be a list", section)
			}
			for _, item := range list {
				// A bare on/yes/no/true/… is a boolean to the scalar
				// parser, not the attribute the author meant.
				s, ok := item.(string)
				sealStrings = sealStrings && ok
				st.Seal = append(st.Seal, s)
			}
		case "Rep", "rep":
			b, ok := v.(bool)
			if !ok {
				return st, fmt.Errorf("spec: %s: rep must be a boolean", section)
			}
			st.Rep = b
		default:
			return st, fmt.Errorf("spec: %s: unknown field %q", section, key)
		}
	}
	if st.Name == "" {
		return st, fmt.Errorf("spec: %s entries need a name", section)
	}
	if !sealStrings { // reported here: the name may follow the seal in the entry
		return st, fmt.Errorf("spec: %s: stream %q: seal entries must be strings (quote words like on/yes/no/true)", section, st.Name)
	}
	return st, nil
}
