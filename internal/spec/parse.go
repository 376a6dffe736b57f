// Package spec parses the Blazes configuration files that grey-box users
// supply (Figure 1, "Blazes spec"): component annotations in the exact
// format printed in Section VI of the paper, plus a `topology` section
// describing sources, streams and sinks so a dataflow graph can be built
// without a host-system adapter.
//
// The format is a small YAML subset sufficient for the paper's files:
// indentation-nested maps, "- " lists, inline flow maps `{k: v, ...}` and
// lists `[a, b]`, booleans, and `#` comments (DESIGN.md, "Spec parser", has
// the grammar). The parser is hand-written so the module stays stdlib-only,
// and reads the source once: every name in the Config it fills is a
// substring of the source.
package spec

import (
	"fmt"
	"strings"
)

// line is one logical line: a physical line less its comment and surrounding
// blanks, and joined to it by single spaces the lines its brackets wrap onto.
type line struct {
	num    int // the physical line it starts on, from 1
	indent int // leading spaces; -1 at the end of the input
	text   string
}

type parser struct {
	src string
	pos int // start of the next physical line
	num int // physical lines read
	cur line
	err error // the first error; every reader below stops once it is set
}

func (p *parser) failf(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

// Parse reads a Blazes configuration document.
func Parse(src string) (*Config, error) {
	p := &parser{src: src}
	p.advance()
	cfg := &Config{byName: map[string]int{}}
	root := value{kind: blockMap}
	if isItem(p.cur.text) {
		root.kind = blockList
		p.valid(root)
	}
	topology := false
	for root.kind == blockMap {
		key, v, ok := p.blockEntry(0)
		if !ok {
			break
		}
		if _, dup := cfg.byName[key]; dup || key == keyTopology && topology {
			p.failf("spec: line %d: duplicate key %q", v.num, key)
		} else if key == keyTopology {
			topology = true
			p.topology(cfg, v)
		} else {
			cfg.byName[key] = len(cfg.Components)
			cfg.Components = append(cfg.Components, p.component(key, v))
		}
	}
	if p.cur.indent >= 0 {
		p.failf("spec: line %d: unexpected content %q", p.cur.num, p.cur.text)
	} else if root.kind == blockList {
		p.failf("spec: document root must be a mapping")
	}
	if p.err != nil {
		return nil, p.err
	}
	return cfg, nil
}

// scanner walks text in search of a byte outside quotes, keeping the bracket
// depth, which goes negative on stray closers: each caller says what depth
// it accepts. Its state without the text is what a wrapped line carries on.
type scanner struct {
	s              string
	i, depth       int
	single, double bool
}

// next returns the index of the next c outside quotes and the bracket depth
// there, or -1 at the end of the text; c is neither a quote nor a bracket.
func (sc *scanner) next(c byte) (at, depth int) {
	for sc.i < len(sc.s) {
		b := sc.s[sc.i]
		sc.i++
		bare := !sc.single && !sc.double
		switch b {
		case '\'':
			sc.single = !sc.single && !sc.double
		case '"':
			sc.double = !sc.double && !sc.single
		case '{', '[':
			if bare {
				sc.depth++
			}
		case '}', ']':
			if bare {
				sc.depth--
			}
		case c:
			if bare {
				return sc.i - 1, sc.depth
			}
		}
	}
	return -1, sc.depth
}

// nonBlank reads physical lines up to the first that holds anything, and
// returns it trimmed and without its comment — a `#` outside quotes that
// starts the line or follows a blank — moving f over it. For comments quotes
// end with the line, so only a logical line's first line is scanned once.
func (p *parser) nonBlank(f *scanner) (text string, indent int, ok bool) {
	for p.pos < len(p.src) {
		raw := p.src[p.pos:]
		if end := strings.IndexByte(raw, '\n'); end >= 0 {
			raw = raw[:end]
		}
		p.pos += len(raw) + 1
		p.num++
		sc := scanner{s: raw}
		for i, _ := sc.next('#'); i >= 0; i, _ = sc.next('#') {
			if i == 0 || raw[i-1] == ' ' || raw[i-1] == '\t' {
				raw = raw[:i]
				break
			}
		}
		if text = strings.TrimSpace(raw); text == "" {
			continue
		}
		if f.depth != 0 || f.single || f.double {
			sc = scanner{s: raw, depth: f.depth, single: f.single, double: f.double}
			sc.next('\n')
		}
		*f = sc
		indent = len(raw) - len(strings.TrimLeft(raw, " "))
		if raw[indent] == '\t' {
			p.failf("spec: line %d: tabs are not allowed for indentation", p.num)
		}
		return text, indent, true
	}
	return "", 0, false
}

// advance makes the next logical line current. A line that leaves a bracket
// open takes the following lines, whatever their indentation, until the
// brackets balance or the input ends; only then is any text copied.
func (p *parser) advance() {
	var f scanner
	text, indent, ok := p.nonBlank(&f)
	if !ok {
		p.cur = line{indent: -1}
		return
	}
	num := p.num
	if f.depth > 0 {
		var joined strings.Builder
		joined.WriteString(text)
		for f.depth > 0 {
			more, _, ok := p.nonBlank(&f)
			if !ok {
				break
			}
			joined.WriteString(" " + more)
		}
		text = joined.String()
	}
	p.cur = line{num: num, indent: indent, text: text}
}

type kind uint8

const (
	scalar kind = iota
	flowMap
	flowList
	blockMap
	blockList
)

// value is a value not yet read: the trimmed text of a scalar or flow
// collection, or the indentation of the block that starts at the current
// line — which must be read before its parent is asked for its next entry.
type value struct {
	kind   kind
	text   string
	num    int // the line of the value's key or dash
	indent int
}

func inline(s string, num int) value {
	v := value{text: s, num: num}
	switch {
	case strings.HasPrefix(s, "{"):
		v.kind = flowMap
	case strings.HasPrefix(s, "["):
		v.kind = flowList
	}
	return v
}

func (v value) isMap() bool  { return v.kind == flowMap || v.kind == blockMap }
func (v value) isList() bool { return v.kind == flowList || v.kind == blockList }

func quoted(s string) bool {
	return len(s) >= 2 && (s[0] == '\'' || s[0] == '"') && s[len(s)-1] == s[0]
}

// boolWord reads true/yes/on and false/no/off in any case — any ASCII case:
// what else Unicode folds onto these letters is longer in bytes.
func boolWord(s string) (val, ok bool) {
	for i, w := range [...]string{"true", "yes", "on", "false", "no", "off"} {
		if len(s) == len(w) && strings.EqualFold(s, w) {
			return i < 3, true
		}
	}
	return false, false
}

// str reads a quoted scalar without its quotes, or a bare one that is no boolean.
func (v value) str() (string, bool) {
	switch {
	case v.kind != scalar:
		return "", false
	case quoted(v.text):
		return v.text[1 : len(v.text)-1], true
	}
	_, isBool := boolWord(v.text)
	return v.text, !isBool
}

func (v value) boolean() (val, ok bool) {
	if v.kind != scalar || quoted(v.text) {
		return false, false
	}
	return boolWord(v.text)
}

func isItem(text string) bool { return strings.HasPrefix(text, "- ") || text == "-" }

// blockEntry reads the next "key: value" line of the block map at indent;
// ok is false where the map ends. A key with nothing after it takes the
// deeper block below it, or a list with its dashes at the key's own
// indentation, or else is the empty string.
func (p *parser) blockEntry(indent int) (key string, v value, ok bool) {
	cur := p.cur
	if p.err != nil || cur.indent != indent || strings.HasPrefix(cur.text, "- ") {
		if cur.indent > indent {
			p.failf("spec: line %d: unexpected indentation", cur.num)
		}
		return "", value{}, false
	}
	key, rest, ok := splitKey(cur.text)
	if !ok {
		p.failf("spec: line %d: expected \"key: value\", got %q", cur.num, cur.text)
		return "", value{}, false
	}
	p.advance()
	v = inline(rest, cur.num)
	switch {
	case rest != "":
	case p.cur.indent > indent && isItem(p.cur.text):
		v.kind, v.indent = blockList, p.cur.indent
	case p.cur.indent > indent:
		v.kind, v.indent = blockMap, p.cur.indent
	case p.cur.indent == indent && strings.HasPrefix(p.cur.text, "- "):
		v.kind, v.indent = blockList, indent
	}
	return key, v, true
}

// splitKey splits "key: rest" at the first colon that is outside quotes and
// brackets and is followed by a space or ends the text — `a:b` is one word.
func splitKey(s string) (key, rest string, ok bool) {
	sc := scanner{s: s}
	for i, depth := sc.next(':'); i >= 0; i, depth = sc.next(':') {
		if depth <= 0 && (i+1 == len(s) || s[i+1] == ' ') {
			return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:]), true
		}
	}
	if strings.HasSuffix(s, ":") { // a colon the scan took for quoted or bracketed
		return strings.TrimSpace(s[:len(s)-1]), "", true
	}
	return "", "", false
}

type entry struct{ key, val string }

// iter yields the entries of a map value or the items of a list value,
// block or flow. Keys come once each, in the order they first appear: a
// block map rejects a repeated key; a flow map yields its last value. The
// first entries sit in an array, not a slice of one, so that an iter points
// nowhere into itself and stays on the stack; past them a map finds a key.
type iter struct {
	p     *parser
	v     value
	n     int // flow: entries to yield; block map: keys yielded
	first [6]entry
	rest  []entry
	index map[string]int // entries of rest by key
	next  int
	key   string
	val   value
}

func (it *iter) at(i int) *entry {
	if i < len(it.first) {
		return &it.first[i]
	}
	return &it.rest[i-len(it.first)]
}

func (it *iter) find(key string) int {
	for i := 0; i < min(it.n, len(it.first)); i++ {
		if it.first[i].key == key {
			return i
		}
	}
	if i, ok := it.index[key]; ok {
		return i
	}
	return -1
}

func (it *iter) add(e entry) {
	if it.n < len(it.first) {
		it.first[it.n] = e
	} else {
		it.rest = append(it.rest, e)
		if it.v.kind != flowList {
			if it.index == nil {
				it.index = map[string]int{}
			}
			it.index[e.key] = it.n
		}
	}
	it.n++
}

// init splits a flow collection into its entries at the commas outside
// quotes and at depth 0 (at a negative depth a comma does not split).
func (it *iter) init(p *parser, v value) {
	it.p, it.v = p, v
	if v.kind != flowMap && v.kind != flowList {
		return
	}
	s := v.text
	if closer := "}]"[v.kind-flowMap]; len(s) < 2 || s[len(s)-1] != closer {
		p.failf("spec: line %d: malformed flow collection %q", v.num, s)
		return
	}
	sc := scanner{s: s[1 : len(s)-1]}
	for start := 0; start <= len(sc.s); {
		end, depth := sc.next(',')
		if end >= 0 && depth != 0 {
			continue
		} else if end < 0 {
			end = len(sc.s)
		}
		part := strings.TrimSpace(sc.s[start:end])
		start = end + 1
		if part == "" {
			continue
		} else if v.kind == flowList {
			it.add(entry{val: part})
			continue
		}
		key, rest, ok := splitKey(part)
		if !ok {
			p.failf("spec: line %d: expected \"key: value\", got %q", v.num, part)
			return
		}
		if i := it.find(key); i >= 0 {
			p.valid(inline(it.at(i).val, v.num)) // dropped, but it had to be well-formed
			it.at(i).val = rest
		} else {
			it.add(entry{key, rest})
		}
	}
}

// more moves to the next entry, setting key (of a map) and val.
func (it *iter) more() bool {
	var ok bool
	switch {
	case it.p.err != nil:
	case it.v.kind == flowMap || it.v.kind == flowList:
		if ok = it.next < it.n; ok {
			e := it.at(it.next)
			it.next++
			it.key, it.val = e.key, inline(e.val, it.v.num)
		}
	case it.v.kind == blockList: // the next "- value" line at the list's indentation
		cur := it.p.cur
		if cur.indent != it.v.indent || !isItem(cur.text) {
			break
		}
		rest := strings.TrimSpace(cur.text[1:])
		if ok = rest != ""; ok {
			it.p.advance()
			it.val = inline(rest, cur.num)
		} else {
			it.p.failf("spec: line %d: empty list items are not supported", cur.num)
		}
	default:
		if it.key, it.val, ok = it.p.blockEntry(it.v.indent); !ok {
			break
		}
		if ok = it.find(it.key) < 0; ok {
			it.add(entry{key: it.key})
		} else {
			it.p.failf("spec: line %d: duplicate key %q", it.val.num, it.key)
		}
	}
	return ok
}

// valid reads a value nothing will look at, for its syntax errors.
func (p *parser) valid(v value) {
	if v.kind == scalar {
		return
	}
	var it iter
	for it.init(p, v); it.more(); {
		p.valid(it.val)
	}
}

// mustBeString: the author meant a name, the scalar rules read a boolean.
const mustBeString = "line %d: %s must be a string (quote words like on/yes/no/true)"

// stringList appends the list v's items to dst; ok is false if one is no string.
func (p *parser) stringList(v value, dst []string) (out []string, ok bool) {
	var it iter
	it.init(p, v)
	if cap(dst) < it.n {
		dst = make([]string, 0, it.n)
	}
	ok = true
	for it.more() {
		s, isString := it.val.str()
		ok = ok && isString
		dst = append(dst, s)
	}
	return dst, ok
}

func (p *parser) component(name string, v value) ComponentSpec {
	comp := ComponentSpec{Name: name}
	if !v.isMap() {
		p.failf("spec: component %q must be a mapping", name)
		return comp
	}
	var it iter
	for it.init(p, v); it.more(); {
		switch it.key {
		case keyRep:
			var ok bool
			if comp.Rep, ok = it.val.boolean(); !ok {
				p.failf("spec: component %q: Rep must be a boolean", name)
			}
		case keyAnnotation:
			comp.Annotations = p.annotations(name, it.val)
		case keySchema:
			comp.Schema = p.schema(name, it.val)
		default: // a named variant
			if !it.val.isMap() {
				p.failf("spec: component %q: key %q must be an annotation map", name, it.key)
				return comp
			}
			if comp.Variants == nil {
				comp.Variants = map[string]AnnotationSpec{}
			}
			comp.Variants[it.key] = p.annotation(name, it.val)
			comp.VariantOrder = append(comp.VariantOrder, it.key)
		}
	}
	return comp
}

// schema reads a mapping from output interface to a list of attribute names.
func (p *parser) schema(comp string, v value) map[string][]string {
	if !v.isMap() {
		p.failf("spec: component %q: schema must be a mapping of interface to attribute list", comp)
		return nil
	}
	out := map[string][]string{}
	var it iter
	for it.init(p, v); it.more(); {
		if !it.val.isList() {
			p.failf("spec: component %q: schema for %q must be a list of attribute names", comp, it.key)
			return nil
		}
		attrs, ok := p.stringList(it.val, []string{})
		if !ok {
			p.failf("spec: component %q: schema attributes for %q must be strings", comp, it.key)
		}
		out[it.key] = attrs
	}
	return out
}

func (p *parser) annotations(comp string, v value) (out []AnnotationSpec) {
	if v.isMap() {
		return []AnnotationSpec{p.annotation(comp, v)}
	} else if !v.isList() {
		p.failf("spec: component %q: annotation must be a map or list of maps", comp)
		return nil
	}
	var it iter
	for it.init(p, v); it.more(); {
		if !it.val.isMap() {
			p.failf("spec: component %q: annotation entries must be maps", comp)
			return nil
		}
		out = append(out, p.annotation(comp, it.val))
	}
	return out
}

func (p *parser) annotation(comp string, v value) (ann AnnotationSpec) {
	var it iter
	for it.init(p, v); it.more(); {
		field := &ann.Label
		switch it.key {
		case "from":
			field = &ann.From
		case "to":
			field = &ann.To
		case "label":
		case "subscript":
			if !it.val.isList() {
				p.failf("spec: component %q: subscript must be a list", comp)
				return ann
			}
			var ok bool
			if ann.Subscript, ok = p.stringList(it.val, nil); !ok {
				p.failf("spec: component %q: subscript entries must be strings", comp)
			}
			continue
		default:
			p.failf("spec: component %q: unknown annotation field %q", comp, it.key)
			return ann
		}
		var ok bool
		if *field, ok = it.val.str(); !ok {
			p.failf("spec: component %q: "+mustBeString, comp, it.val.num, it.key)
		}
	}
	if ann.From == "" || ann.To == "" || ann.Label == "" {
		p.failf("spec: component %q: annotation needs from, to and label", comp)
	}
	return ann
}

func (p *parser) topology(cfg *Config, v value) {
	if !v.isMap() {
		p.failf("spec: topology must be a mapping")
		return
	}
	var it iter
	for it.init(p, v); it.more(); {
		section := it.key
		if !it.val.isList() {
			p.failf("spec: topology %s must be a list", section)
			return
		}
		var items iter
		for items.init(p, it.val); items.more(); {
			if !items.val.isMap() {
				p.failf("spec: topology %s entries must be maps", section)
				return
			}
			st := p.stream(section, items.val)
			switch {
			case section == "sources" && st.To == "":
				p.failf("spec: source %q needs `to`", st.Name)
			case section == "sinks" && st.From == "":
				p.failf("spec: sink %q needs `from`", st.Name)
			case section == "streams" && (st.From == "" || st.To == ""):
				p.failf("spec: stream %q needs `from` and `to`", st.Name)
			case section != "sources" && section != "sinks" && section != "streams":
				p.failf("spec: unknown topology section %q", section)
			}
			cfg.Streams = append(cfg.Streams, st)
		}
	}
}

func (p *parser) stream(section string, v value) (st StreamSpec) {
	sealStrings := true
	var it iter
	for it.init(p, v); it.more(); {
		field := &st.Name
		switch it.key {
		case "name":
		case "from":
			field = &st.From
		case "to":
			field = &st.To
		case "seal":
			if !it.val.isList() {
				p.failf("spec: %s: seal must be a list", section)
				return st
			}
			st.Seal, sealStrings = p.stringList(it.val, nil)
			continue
		case "Rep", "rep":
			var ok bool
			if st.Rep, ok = it.val.boolean(); !ok {
				p.failf("spec: %s: rep must be a boolean", section)
			}
			continue
		default:
			p.failf("spec: %s: unknown field %q", section, it.key)
			return st
		}
		var ok bool
		if *field, ok = it.val.str(); !ok {
			p.failf("spec: %s: "+mustBeString, section, it.val.num, it.key)
		}
	}
	if st.Name == "" {
		p.failf("spec: %s entries need a name", section)
	}
	if !sealStrings { // reported here: the name may follow the seal in the entry
		p.failf("spec: %s: stream %q: seal entries must be strings (quote words like on/yes/no/true)", section, st.Name)
	}
	return st
}
