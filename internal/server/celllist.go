package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// CellList is a list of cells on the wire, the one type of every
// response that carries several: GET cells, with or without since, and
// the cells a match or rematch wrote. It travels as one table: each
// distinct source ID, target ID and tool once, then one column per
// cell field, holding an index into those lists or the value itself:
//
//	{"sources":["s/a","s/b"],"targets":["t/x"],"tools":["harmony"],
//	 "source":[0,1],"target":[0,0],"tool":[0,0],
//	 "confidence":[0.5,0.25],"userDefined":[false,false],"revision":[7,8]}
//
// There is no other form. A client and a server ship together: either
// one reading the other's former object array fails with an error
// instead of reading an empty list. The codec is written out by hand:
// encoding/json encodes the table's columns about half as fast, and
// decodes them about as slowly as the object array it replaces.
type CellList []CellInfo

// cellColumns is the table's columns as the decoder reads them.
type cellColumns struct {
	Sources, Targets, Tools        []string
	Source, Target, Tool, Revision []int
	Confidence                     []float64
	UserDefined                    []bool
}

// dict numbers the distinct strings of one column in order of first
// use. Cells arrive sorted by source and mostly from one tool, so a
// repeat of the previous string skips the map.
type dict struct {
	list []string
	ids  map[string]int
	last int
}

func (d *dict) id(s string) int {
	if len(d.list) > 0 && d.list[d.last] == s {
		return d.last
	}
	k, ok := d.ids[s]
	if !ok {
		k = len(d.list)
		d.ids[s] = k
		d.list = append(d.list, s)
	}
	d.last = k
	return k
}

// MarshalJSON encodes the list as one table; a nil list is an empty
// table. A confidence that is not finite is an error, as in
// encoding/json.
func (l CellList) MarshalJSON() ([]byte, error) {
	src, tgt, tool := dict{ids: map[string]int{}}, dict{ids: make(map[string]int, len(l))}, dict{ids: map[string]int{}}
	ids := make([]int, 3*len(l))
	for i, c := range l {
		if math.IsNaN(c.Confidence) || math.IsInf(c.Confidence, 0) {
			return nil, fmt.Errorf("cell list: cell %d: confidence %v is not a JSON number", i, c.Confidence)
		}
		ids[3*i], ids[3*i+1], ids[3*i+2] = src.id(c.Source), tgt.id(c.Target), tool.id(c.SetBy)
	}
	size := 256
	for _, d := range [...]*dict{&src, &tgt, &tool} {
		for _, s := range d.list {
			size += len(s) + 3
		}
	}
	// Up to 24 bytes per confidence, 20 per integer, 6 per flag.
	buf := make([]byte, 0, size+110*len(l))
	buf = appendStrings(append(buf, `{"sources":`...), src.list)
	buf = appendStrings(append(buf, `,"targets":`...), tgt.list)
	buf = appendStrings(append(buf, `,"tools":`...), tool.list)
	for k, name := range [...]string{`,"source":[`, `,"target":[`, `,"tool":[`} {
		buf = append(buf, name...)
		for i := range l {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(ids[3*i+k]), 10)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"confidence":[`...)
	for i, c := range l {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, c.Confidence, 'g', -1, 64)
	}
	buf = append(buf, `],"userDefined":[`...)
	for i, c := range l {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendBool(buf, c.UserDefined)
	}
	buf = append(buf, `],"revision":[`...)
	for i, c := range l {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(c.Revision), 10)
	}
	return append(buf, "]}"...), nil
}

// plainByte marks the bytes a JSON string holds as they are: printable
// ASCII but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// appendStrings appends ss as a JSON array of strings. A string holding
// a byte that is not plain goes through encoding/json; element IDs and
// tool names rarely hold one.
func appendStrings(buf []byte, ss []string) []byte {
	buf = append(buf, '[')
	for i, s := range ss {
		if i > 0 {
			buf = append(buf, ',')
		}
		plain := true
		for k := 0; k < len(s) && plain; k++ {
			plain = plainByte[s[k]]
		}
		if plain {
			buf = append(append(append(buf, '"'), s...), '"')
			continue
		}
		q, _ := json.Marshal(s)
		buf = append(buf, q...)
	}
	return append(buf, ']')
}

// UnmarshalJSON decodes the table form; null leaves the list as it is.
// Anything else — a JSON array (the former object-array form), a column
// the form does not have, columns of unequal length, an index outside
// its list, or malformed JSON — is an error naming the problem.
func (l *CellList) UnmarshalJSON(data []byte) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("cell list: %w", err)
		}
	}()
	d := cellDecoder{data: data}
	if d.ws(); d.i < len(data) && data[d.i] == '[' {
		return fmt.Errorf("got a JSON array, want the table form (the client and the server must ship together)")
	}
	if d.literal("null") {
		return d.end()
	}
	var cols cellColumns
	if !d.next('{') {
		return d.errorf("want the table object")
	}
	for first := true; !d.next('}'); first = false {
		if !first && !d.next(',') {
			return d.errorf("want ',' or '}'")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if !d.next(':') {
			return d.errorf("want ':'")
		}
		switch key {
		case "sources":
			cols.Sources, err = d.strings()
		case "targets":
			cols.Targets, err = d.strings()
		case "tools":
			cols.Tools, err = d.strings()
		case "source":
			cols.Source, err = d.ints()
		case "target":
			cols.Target, err = d.ints()
		case "tool":
			cols.Tool, err = d.ints()
		case "revision":
			cols.Revision, err = d.ints()
		case "confidence":
			cols.Confidence = []float64{}
			err = d.list(func() error {
				v, err := strconv.ParseFloat(string(d.number()), 64)
				cols.Confidence = append(cols.Confidence, v)
				return err
			})
		case "userDefined":
			cols.UserDefined = []bool{}
			err = d.list(func() error {
				switch {
				case d.literal("true"):
					cols.UserDefined = append(cols.UserDefined, true)
				case d.literal("false"):
					cols.UserDefined = append(cols.UserDefined, false)
				default:
					return d.errorf("want true or false")
				}
				return nil
			})
		default:
			return fmt.Errorf("unknown column %q", key)
		}
		if err != nil {
			return fmt.Errorf("column %q: %w", key, err)
		}
	}
	if err := d.end(); err != nil {
		return err
	}
	n := len(cols.Source)
	for _, col := range [...]struct {
		name string
		n    int
	}{
		{"target", len(cols.Target)}, {"tool", len(cols.Tool)}, {"confidence", len(cols.Confidence)},
		{"userDefined", len(cols.UserDefined)}, {"revision", len(cols.Revision)},
	} {
		if col.n != n {
			return fmt.Errorf("column %q has %d entries, column \"source\" has %d", col.name, col.n, n)
		}
	}
	out := make(CellList, n)
	for i := range out {
		if err := inRange(i, "source", cols.Source[i], cols.Sources); err != nil {
			return err
		}
		if err := inRange(i, "target", cols.Target[i], cols.Targets); err != nil {
			return err
		}
		if err := inRange(i, "tool", cols.Tool[i], cols.Tools); err != nil {
			return err
		}
		out[i] = CellInfo{
			Source: cols.Sources[cols.Source[i]], Target: cols.Targets[cols.Target[i]], SetBy: cols.Tools[cols.Tool[i]],
			Confidence: cols.Confidence[i], UserDefined: cols.UserDefined[i], Revision: cols.Revision[i],
		}
	}
	*l = out
	return nil
}

// inRange reports an error unless cell i's index k names an entry of
// the column's list.
func inRange(i int, column string, k int, list []string) error {
	if k < 0 || k >= len(list) {
		return fmt.Errorf("cell %d: %s index %d outside the %d listed", i, column, k, len(list))
	}
	return nil
}

// cellDecoder reads the table form: one object whose members are
// arrays of strings, numbers or booleans.
type cellDecoder struct {
	data []byte
	i    int
}

func (d *cellDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: "+format, append([]any{d.i}, args...)...)
}

func (d *cellDecoder) ws() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next consumes c, after white space, if it comes next.
func (d *cellDecoder) next(c byte) bool {
	d.ws()
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal consumes word, after white space, if it comes next.
func (d *cellDecoder) literal(word string) bool {
	d.ws()
	if len(d.data)-d.i >= len(word) && string(d.data[d.i:d.i+len(word)]) == word {
		d.i += len(word)
		return true
	}
	return false
}

// end reports an error unless only white space is left.
func (d *cellDecoder) end() error {
	if d.ws(); d.i != len(d.data) {
		return d.errorf("trailing data")
	}
	return nil
}

// list reads an array, calling elem once per element.
func (d *cellDecoder) list(elem func() error) error {
	if !d.next('[') {
		return d.errorf("want an array")
	}
	if d.next(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if d.next(']') {
			return nil
		}
		if !d.next(',') {
			return d.errorf("want ',' or ']'")
		}
	}
}

func (d *cellDecoder) strings() ([]string, error) {
	out := []string{}
	return out, d.list(func() error {
		s, err := d.str()
		out = append(out, s)
		return err
	})
}

func (d *cellDecoder) ints() ([]int, error) {
	out := []int{}
	return out, d.list(func() error {
		v, err := strconv.Atoi(string(d.number()))
		out = append(out, v)
		return err
	})
}

// str reads a string. One without escapes that is valid UTF-8 is its
// bytes; encoding/json decodes any other, turning invalid UTF-8 into
// U+FFFD.
func (d *cellDecoder) str() (string, error) {
	d.ws()
	if d.i >= len(d.data) || d.data[d.i] != '"' {
		return "", d.errorf("want a string")
	}
	start, escaped := d.i, false
	for j := start + 1; j < len(d.data); j++ {
		switch c := d.data[j]; {
		case c == '"':
			d.i = j + 1
			if raw := d.data[start+1 : j]; !escaped && utf8.Valid(raw) {
				return string(raw), nil
			}
			var s string
			if err := json.Unmarshal(d.data[start:d.i], &s); err != nil {
				return "", d.errorf("%v", err)
			}
			return s, nil
		case c == '\\':
			escaped = true
			j++
		case c < 0x20:
			return "", d.errorf("control character in a string")
		}
	}
	return "", d.errorf("unterminated string")
}

// number reads the text of a JSON number; text that is not one reads as
// nothing, which fails to parse.
func (d *cellDecoder) number() []byte {
	d.ws()
	data, i := d.data, d.i
	digits := func() bool {
		k := i
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
		return i > k
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if !digits() {
		return nil
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			return nil
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return nil
		}
	}
	s := data[d.i:i]
	d.i = i
	return s
}
