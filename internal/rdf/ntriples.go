package rdf

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf8"
)

// N-Triples serialization. The blackboard uses this for snapshot
// export/import (our stand-in for the paper's "blackboard shared across
// multiple workbench instances" future-work item).

// WriteNTriples writes the graph in canonical (sorted) N-Triples form:
// the (subject, predicate, object) order of Triples. It walks the SPO
// index, sorting each level's IDs by the terms they name with
// compareTerm, and renders every statement into one reused line buffer,
// so it builds no slice of every triple and no string per term.
//
// The walk holds the graph's read lock throughout, so a writer to the
// graph waits until the whole graph is written. Every caller already
// excludes writers for that long — the WAL snapshot under the store
// lock, the replica bootstrap under the workspace's TxnMu, the CLI state
// file in its single process — and writes to a file or an in-memory
// buffer, never to a peer that could stall the walk.
func WriteNTriples(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	g.mu.RLock()
	err := g.writeSortedLocked(bw)
	g.mu.RUnlock()
	if err != nil {
		return err
	}
	return bw.Flush()
}

// writeSortedLocked is WriteNTriples' walk; the caller holds g.mu.
func (g *Graph) writeSortedLocked(w *bufio.Writer) error {
	byTerm := func(a, b id) int { return compareTerm(g.terms[a], g.terms[b]) }
	var subjects []id
	for s, level := range g.spo {
		if level != nil {
			subjects = append(subjects, id(s))
		}
	}
	slices.SortFunc(subjects, byTerm)
	var preds, objs []id
	var line []byte
	for _, s := range subjects {
		level := g.spo[s]
		preds = preds[:0]
		for p := range level {
			preds = append(preds, p)
		}
		slices.SortFunc(preds, byTerm)
		line = append(g.terms[s].AppendTo(line[:0]), ' ')
		subjLen := len(line)
		for _, p := range preds {
			line = append(g.terms[p].AppendTo(line[:subjLen]), ' ')
			predLen := len(line)
			objs = level[p].appendTo(objs[:0])
			slices.SortFunc(objs, byTerm)
			for _, o := range objs {
				line = append(g.terms[o].AppendTo(line[:predLen]), " .\n"...)
				if _, err := w.Write(line); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// MarshalNTriples renders the graph to a canonical N-Triples string.
func MarshalNTriples(g *Graph) string {
	var b strings.Builder
	_ = WriteNTriples(&b, g) // a strings.Builder never fails
	return b.String()
}

// ReadNTriples parses N-Triples from r into a new graph.
func ReadNTriples(r io.Reader) (*Graph, error) {
	g := NewGraph()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := ParseTriple(line)
		if err != nil {
			return nil, fmt.Errorf("rdf: line %d: %w", ln, err)
		}
		g.Add(t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// UnmarshalNTriples parses an N-Triples document from a string.
func UnmarshalNTriples(s string) (*Graph, error) {
	return ReadNTriples(strings.NewReader(s))
}

// ParseTriple parses one N-Triples statement (with or without the trailing
// " .").
func ParseTriple(line string) (Triple, error) {
	line = strings.TrimSpace(line)
	line = strings.TrimSuffix(line, ".")
	line = strings.TrimSpace(line)
	toks, err := tokenizePatternLine(line)
	if err != nil {
		return Triple{}, err
	}
	if len(toks) != 3 {
		return Triple{}, fmt.Errorf("want 3 terms, got %d in %q", len(toks), line)
	}
	var terms [3]Term
	for i, tok := range toks {
		t, err := parseTermToken(tok)
		if err != nil {
			return Triple{}, err
		}
		terms[i] = t
	}
	return Triple{terms[0], terms[1], terms[2]}, nil
}

// checkTermText rejects term text the serializer cannot reproduce
// byte-for-byte: invalid UTF-8 always (escaping would substitute
// U+FFFD and silently change the value), and control characters in
// IRIs and blank labels (literals carry them via escapes instead).
func checkTermText(s, what string, allowControl bool) error {
	if !utf8.ValidString(s) {
		return fmt.Errorf("%s %q contains invalid UTF-8", what, s)
	}
	if allowControl {
		return nil
	}
	for _, r := range s {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("%s %q contains control character %q", what, s, r)
		}
	}
	return nil
}

// parseTermToken parses a single N-Triples term token.
func parseTermToken(tok string) (Term, error) {
	switch {
	case strings.HasPrefix(tok, "<") && strings.HasSuffix(tok, ">"):
		v, err := unescapeIRI(tok[1 : len(tok)-1])
		if err != nil {
			return Term{}, err
		}
		if err := checkTermText(v, "IRI", false); err != nil {
			return Term{}, err
		}
		return IRI(v), nil
	case strings.HasPrefix(tok, "_:"):
		if len(tok) == 2 {
			return Term{}, fmt.Errorf("empty blank node label")
		}
		if err := checkTermText(tok[2:], "blank node label", false); err != nil {
			return Term{}, err
		}
		return Blank(tok[2:]), nil
	case strings.HasPrefix(tok, "\""):
		end := -1
		for i := 1; i < len(tok); i++ {
			if tok[i] == '\\' {
				i++
				continue
			}
			if tok[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return Term{}, fmt.Errorf("unterminated literal %q", tok)
		}
		lex, err := unescapeLiteral(tok[1:end])
		if err != nil {
			return Term{}, err
		}
		if err := checkTermText(lex, "literal", true); err != nil {
			return Term{}, err
		}
		rest := tok[end+1:]
		if rest == "" {
			return Literal(lex), nil
		}
		if strings.HasPrefix(rest, "^^<") && strings.HasSuffix(rest, ">") {
			dt, err := unescapeIRI(rest[3 : len(rest)-1])
			if err != nil {
				return Term{}, err
			}
			if err := checkTermText(dt, "datatype IRI", false); err != nil {
				return Term{}, err
			}
			return TypedLiteral(lex, dt), nil
		}
		if strings.HasPrefix(rest, "@") {
			// Language tags are accepted and discarded; the blackboard
			// vocabulary does not use them.
			return Literal(lex), nil
		}
		return Term{}, fmt.Errorf("trailing garbage %q after literal", rest)
	default:
		return Term{}, fmt.Errorf("unrecognized term token %q", tok)
	}
}
