// Package rdf implements the triple-store substrate on which the
// integration blackboard is built (paper §5.1: "We propose using RDF for
// the IB").
//
// The package provides RDF terms (IRIs, literals, blank nodes), an indexed
// in-memory graph with pattern matching, a small basic-graph-pattern query
// engine, and N-Triples serialization. It is deliberately self-contained:
// the workbench needs labeled graphs with arbitrary annotations, not a
// full SPARQL implementation.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Kind discriminates the three kinds of RDF terms.
type Kind int

const (
	// IRIKind identifies an IRI reference term.
	IRIKind Kind = iota
	// LiteralKind identifies a literal term.
	LiteralKind
	// BlankKind identifies a blank node term.
	BlankKind
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case IRIKind:
		return "iri"
	case LiteralKind:
		return "literal"
	case BlankKind:
		return "blank"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Term is an RDF term: an IRI, a literal, or a blank node.
//
// Terms are immutable values; two terms are equal (==) exactly when they
// denote the same RDF term, so Term can be used as a map key.
type Term struct {
	kind Kind
	// value holds the IRI string, the literal lexical form, or the blank
	// node label depending on kind.
	value string
	// datatype holds the literal datatype IRI; empty for plain literals
	// and for non-literals.
	datatype string
}

// IRI returns an IRI term for the given absolute or prefixed IRI string.
func IRI(iri string) Term { return Term{kind: IRIKind, value: iri} }

// Literal returns a plain (string) literal term.
func Literal(lexical string) Term { return Term{kind: LiteralKind, value: lexical} }

// TypedLiteral returns a literal term with an explicit datatype IRI.
func TypedLiteral(lexical, datatype string) Term {
	return Term{kind: LiteralKind, value: lexical, datatype: datatype}
}

// Blank returns a blank-node term with the given label.
func Blank(label string) Term { return Term{kind: BlankKind, value: label} }

// Common XSD datatype IRIs used by the blackboard vocabulary.
const (
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDFloat   = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
)

// IntLiteral returns an xsd:integer literal.
func IntLiteral(v int) Term { return TypedLiteral(strconv.Itoa(v), XSDInteger) }

// FloatLiteral returns an xsd:double literal.
func FloatLiteral(v float64) Term {
	return TypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), XSDFloat)
}

// BoolLiteral returns an xsd:boolean literal.
func BoolLiteral(v bool) Term { return TypedLiteral(strconv.FormatBool(v), XSDBoolean) }

// Kind reports the kind of the term.
func (t Term) Kind() Kind { return t.kind }

// Value returns the IRI string, literal lexical form, or blank label.
func (t Term) Value() string { return t.value }

// IsZero reports whether t is the zero Term (no valid term).
func (t Term) IsZero() bool { return t == Term{} }

// Int parses the term as an integer literal.
func (t Term) Int() (int, error) {
	if t.kind != LiteralKind {
		return 0, fmt.Errorf("rdf: term %s is not a literal", t)
	}
	return strconv.Atoi(t.value)
}

// Float parses the term as a floating-point literal.
func (t Term) Float() (float64, error) {
	if t.kind != LiteralKind {
		return 0, fmt.Errorf("rdf: term %s is not a literal", t)
	}
	return strconv.ParseFloat(t.value, 64)
}

// Bool parses the term as a boolean literal.
func (t Term) Bool() (bool, error) {
	if t.kind != LiteralKind {
		return false, fmt.Errorf("rdf: term %s is not a literal", t)
	}
	return strconv.ParseBool(t.value)
}

// String renders the term in N-Triples syntax.
func (t Term) String() string { return string(t.AppendTo(nil)) }

// AppendTo appends the term's N-Triples rendering to dst and returns the
// extended slice.
func (t Term) AppendTo(dst []byte) []byte {
	switch t.kind {
	case IRIKind:
		dst = append(dst, '<')
		dst = appendIRI(dst, t.value)
		return append(dst, '>')
	case BlankKind:
		dst = append(dst, "_:"...)
		return append(dst, t.value...)
	case LiteralKind:
		dst = append(dst, '"')
		dst = appendLiteral(dst, t.value)
		dst = append(dst, '"')
		if t.datatype != "" {
			dst = append(dst, "^^<"...)
			dst = appendIRI(dst, t.datatype)
			dst = append(dst, '>')
		}
		return dst
	default:
		return append(dst, "?!"...)
	}
}

// appendIRI appends an IRI with the characters a statement cannot carry
// verbatim written as N-Triples UCHAR escapes: the space that would
// split the statement into four terms, the '>' that would end the IRI
// early, and the '\' that starts an escape. Every other byte is copied
// unchanged, so the blackboard's own IRIs (the '|' of every cell IRI
// included) keep their WAL and snapshot bytes.
func appendIRI(dst []byte, s string) []byte {
	if !strings.ContainsAny(s, ` >\`) {
		return append(dst, s...)
	}
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case ' ', '>', '\\':
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// unescapeIRI reverses appendIRI. It decodes any UCHAR (\uXXXX or
// \UXXXXXXXX) naming a valid code point and rejects every other
// backslash.
func unescapeIRI(s string) (string, error) {
	if strings.IndexByte(s, '\\') < 0 {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		n := 0
		if i+1 < len(s) {
			switch s[i+1] {
			case 'u':
				n = 4
			case 'U':
				n = 8
			}
		}
		if n == 0 || i+2+n > len(s) {
			return "", fmt.Errorf("rdf: malformed escape in IRI %q", s)
		}
		v, err := strconv.ParseUint(s[i+2:i+2+n], 16, 32)
		if err != nil || !utf8.ValidRune(rune(v)) {
			return "", fmt.Errorf("rdf: malformed escape in IRI %q", s)
		}
		b.WriteRune(rune(v))
		i += 1 + n
	}
	return b.String(), nil
}

// appendLiteral appends a literal lexical form escaped per N-Triples
// rules. Each byte of invalid UTF-8 is written as U+FFFD.
func appendLiteral(dst []byte, s string) []byte {
	for _, r := range s {
		switch r {
		case '\\':
			dst = append(dst, `\\`...)
		case '"':
			dst = append(dst, `\"`...)
		case '\n':
			dst = append(dst, `\n`...)
		case '\r':
			dst = append(dst, `\r`...)
		case '\t':
			dst = append(dst, `\t`...)
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return dst
}

// unescapeLiteral reverses appendLiteral.
func unescapeLiteral(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("rdf: dangling escape in literal %q", s)
		}
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		default:
			return "", fmt.Errorf("rdf: unknown escape \\%c in literal %q", s[i], s)
		}
	}
	return b.String(), nil
}

// Triple is a single RDF statement.
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples syntax (without trailing newline).
func (t Triple) String() string { return string(t.AppendTo(nil)) }

// AppendTo appends the triple's N-Triples statement (without trailing
// newline) to dst and returns the extended slice.
func (t Triple) AppendTo(dst []byte) []byte {
	dst = t.S.AppendTo(dst)
	dst = append(dst, ' ')
	dst = t.P.AppendTo(dst)
	dst = append(dst, ' ')
	dst = t.O.AppendTo(dst)
	return append(dst, " ."...)
}

// Compare orders triples lexicographically by subject, predicate, object.
// It returns -1, 0, or +1.
func (t Triple) Compare(u Triple) int {
	if c := compareTerm(t.S, u.S); c != 0 {
		return c
	}
	if c := compareTerm(t.P, u.P); c != 0 {
		return c
	}
	return compareTerm(t.O, u.O)
}

func compareTerm(a, b Term) int {
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	if a.value != b.value {
		if a.value < b.value {
			return -1
		}
		return 1
	}
	if a.datatype != b.datatype {
		if a.datatype < b.datatype {
			return -1
		}
		return 1
	}
	return 0
}
