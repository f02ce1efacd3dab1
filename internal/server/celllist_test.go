package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/server"
)

// sameCells compares two lists field by field, confidences bit for bit.
func sameCells(t *testing.T, got, want []server.CellInfo) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d cells, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Source != w.Source || g.Target != w.Target || g.SetBy != w.SetBy || g.UserDefined != w.UserDefined ||
			g.Revision != w.Revision || math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) {
			t.Fatalf("cell %d = %+v, want %+v", i, g, w)
		}
	}
}

func roundTrip(t *testing.T, in server.CellList) server.CellList {
	t.Helper()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out server.CellList
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	return out
}

func TestCellListRoundTrip(t *testing.T) {
	in := server.CellList{
		{Source: "s/a", Target: "t/x", Confidence: 0.1, SetBy: "harmony", Revision: 7},
		{Source: "s/a", Target: "t/y", Confidence: math.Copysign(0, -1), SetBy: "harmony", Revision: 8},
		{Source: "s/b", Target: "t/x", Confidence: 1, UserDefined: true, SetBy: "session:ws-default-1/alice", Revision: math.MaxInt64},
		{Source: "s/<b>&\"c\"|d", Target: "t/é ", Confidence: -5e-324, SetBy: "", Revision: -1},
		{Source: "s/a", Target: "t/x", Confidence: math.MaxFloat64, SetBy: "harmony"},
	}
	sameCells(t, roundTrip(t, in), in)

	// Each distinct string travels once.
	data, _ := json.Marshal(in)
	var cols map[string]json.RawMessage
	if err := json.Unmarshal(data, &cols); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int{"sources": 3, "targets": 3, "tools": 3, "source": 5, "revision": 5} {
		var list []any
		if err := json.Unmarshal(cols[key], &list); err != nil || len(list) != want {
			t.Errorf("%s = %s, want %d entries", key, cols[key], want)
		}
	}
}

func TestCellListNilEncodesEmptyTable(t *testing.T) {
	data, err := json.Marshal(server.CellList(nil))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"sources":[],"targets":[],"tools":[],"source":[],"target":[],"tool":[],"confidence":[],"userDefined":[],"revision":[]}`
	if string(data) != want {
		t.Fatalf("nil list = %s\nwant %s", data, want)
	}
	if out := roundTrip(t, nil); out == nil || len(out) != 0 {
		t.Fatalf("empty table decodes to %#v, want an empty list", out)
	}
	resp, _ := json.Marshal(server.MatchResponse{})
	if !strings.Contains(string(resp), `"cells":{"sources":[]`) {
		t.Fatalf("a response without cells = %s", resp)
	}
}

// TestCellListDecodeErrors: every malformed table, and the former
// object-array form, is an error naming the problem, also inside a
// response; an old client reading the table form fails too.
func TestCellListDecodeErrors(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"sources":["a"],"targets":["x"],"tools":["h"],"source":[0,0],"target":[0],"tool":[0,0],"confidence":[1,1],"userDefined":[true,true],"revision":[1,2]}`, `column "target" has 1 entries`},
		{`{"sources":["a"],"targets":["x"],"tools":["h"],"source":[0],"target":[0],"tool":[0],"confidence":[1],"userDefined":[true],"revision":[]}`, `column "revision" has 0 entries`},
		{`{"sources":["a"],"targets":["x"],"tools":["h"],"source":[1],"target":[0],"tool":[0],"confidence":[1],"userDefined":[true],"revision":[1]}`, `source index 1 outside the 1 listed`},
		{`{"sources":["a"],"targets":["x"],"tools":["h"],"source":[0],"target":[0],"tool":[-1],"confidence":[1],"userDefined":[true],"revision":[1]}`, `tool index -1 outside`},
		{`{"sources":["a"],"targets":[],"tools":["h"],"source":[0],"target":[0],"tool":[0],"confidence":[1],"userDefined":[true],"revision":[1]}`, `target index 0 outside the 0 listed`},
		{`[{"source":"a","target":"x","confidence":1,"userDefined":true,"setBy":"h","revision":1}]`, `got a JSON array, want the table form`},
		{`[]`, `got a JSON array`},
		{`{"source":"a"}`, `cell list:`},
	} {
		var l server.CellList
		if err := json.Unmarshal([]byte(tc.body), &l); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("decoding %s: err = %v, want it to name %q", tc.body, err, tc.want)
		}
		var resp server.RematchResponse
		if err := json.Unmarshal([]byte(`{"mode":"pins","cells":`+tc.body+`}`), &resp); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("decoding a response with cells %s: err = %v, want it to name %q", tc.body, err, tc.want)
		}
	}
	table, _ := json.Marshal(server.CellList{{Source: "a", Target: "x", Confidence: 1}})
	var old []server.CellInfo
	if err := json.Unmarshal(table, &old); err == nil {
		t.Fatalf("an object-array reader decoded the table form as %+v", old)
	}
}

// FuzzCellList: arbitrary bytes never panic the decoder, whatever it
// decodes encodes to bytes that decode and encode back to themselves,
// and a list built from them — valid UTF-8 strings, finite confidences —
// round-trips bit for bit.
func FuzzCellList(f *testing.F) {
	f.Add([]byte(`{"sources":["a"],"targets":["x"],"tools":["h"],"source":[0],"target":[0],"tool":[0],"confidence":[0.5],"userDefined":[false],"revision":[3]}`))
	f.Add([]byte(`[{"source":"a"}]`))
	f.Add([]byte("s/a\x00t/x\x00harmony\x00\x01\x02\x03\x04\x05\x06\x07\x08"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var l server.CellList
		_ = json.Unmarshal(data, &l)
		var decoded server.CellList
		if decoded.UnmarshalJSON(data) == nil {
			enc, err := decoded.MarshalJSON()
			if err != nil {
				t.Fatalf("encoding %+v: %v", decoded, err)
			}
			var back server.CellList
			if err := back.UnmarshalJSON(enc); err != nil {
				t.Fatalf("re-decoding %s: %v", enc, err)
			}
			if again, _ := back.MarshalJSON(); !bytes.Equal(again, enc) {
				t.Fatalf("round trip changed %s to %s", enc, again)
			}
		}

		in := cellsFrom(data)
		out, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal %+v: %v", in, err)
		}
		var back server.CellList
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", out, err)
		}
		sameCells(t, back, in)
	})
}

// cellsFrom builds a cell list from fuzz bytes: NUL-separated strings
// (made valid UTF-8) name sources, targets and tools in turn, and every
// 8 bytes after them give a cell's confidence (non-finite ones skipped)
// and revision.
func cellsFrom(data []byte) server.CellList {
	var strs []string
	rest := data
	for len(strs) < 6 {
		i := strings.IndexByte(string(rest), 0)
		if i < 0 {
			break
		}
		strs = append(strs, strings.ToValidUTF8(string(rest[:i]), string(utf8.RuneError)))
		rest = rest[i+1:]
	}
	if len(strs) == 0 {
		strs = []string{""}
	}
	var out server.CellList
	for k := 0; len(rest) >= 8; k++ {
		bits := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out = append(out, server.CellInfo{
			Source: strs[k%len(strs)], Target: strs[(k+1)%len(strs)], SetBy: strs[(k+2)%len(strs)],
			Confidence: v, UserDefined: bits&1 == 1, Revision: int(int64(bits)) >> 3,
		})
	}
	return out
}

// reviewCells is the published cell count of the review workload's
// mapping (a 1000-element registry pair matched at threshold 0.25).
const reviewCells = 3106

// reviewList is a cell list shaped like a review view: reviewCells
// cells sorted by source, about three per source element, scores from
// harmony and one decision in ten by an analyst's session.
func reviewList() server.CellList {
	out := make(server.CellList, reviewCells)
	for k := range out {
		i := k / 3
		out[k] = server.CellInfo{
			Source:     fmt.Sprintf("registry-model-0000/Entity%03d/attribute%04d", i/10, i),
			Target:     fmt.Sprintf("registry-model-0000-perturbed/Entity%03d/attr%04d", (i+k%3)/10, (i*7+k)%1000),
			Confidence: 0.25 + float64(k%70)/100 + 1/float64(k+3),
			SetBy:      "harmony",
			Revision:   1000 + k,
		}
		if k%10 == 0 {
			out[k].Confidence, out[k].UserDefined, out[k].SetBy = 1, true, "session:ws-default-1/analyst-0"
		}
	}
	return out
}

// BenchmarkCellList encodes and decodes a view of reviewCells cells:
// the table form through its own methods, as the server writes it and
// the client reads it, next to the object array the table replaced
// through encoding/json. It reports the bytes on the wire.
func BenchmarkCellList(b *testing.B) {
	list := reviewList()
	table, err := list.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	objects, err := json.Marshal([]server.CellInfo(list))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("table/encode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(table)), "bytes")
		for i := 0; i < b.N; i++ {
			if _, err := list.MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("table/decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out server.CellList
			if err := out.UnmarshalJSON(table); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("objects/encode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(objects)), "bytes")
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal([]server.CellInfo(list)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("objects/decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out []server.CellInfo
			if err := json.Unmarshal(objects, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
