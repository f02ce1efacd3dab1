package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// appendFrameRef and encodeTxnRef are the framing code EncodeTxn
// replaced, which rendered each triple to a string and checksummed the
// header and the triple separately; kept as the byte-for-byte reference.
func appendFrameRef(buf []byte, r Record) []byte {
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = byte(r.Kind)
	n := 1 + binary.PutUvarint(hdr[1:], r.Txn)
	var fixed [frameOverhead]byte
	binary.LittleEndian.PutUint32(fixed[0:4], uint32(n+len(r.Triple)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:n])
	crc.Write([]byte(r.Triple))
	binary.LittleEndian.PutUint32(fixed[4:8], crc.Sum32())
	buf = append(buf, fixed[:]...)
	buf = append(buf, hdr[:n]...)
	return append(buf, r.Triple...)
}

func encodeTxnRef(txn uint64, ops []rdf.ChangeOp) []byte {
	buf := appendFrameRef(nil, Record{Kind: KindBegin, Txn: txn})
	for _, op := range ops {
		k := KindAdd
		if !op.Add {
			k = KindDel
		}
		buf = appendFrameRef(buf, Record{Kind: k, Txn: txn, Triple: op.T.String()})
	}
	return appendFrameRef(buf, Record{Kind: KindCommit, Txn: txn})
}

// TestNTriplesFramesMatchReference checks EncodeTxn against the reference
// framing, byte for byte, on random transactions whose triples carry
// IRI and literal escapes, blank nodes, typed literals and invalid
// UTF-8, under txn IDs of every varint width.
func TestNTriplesFramesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pieces := []string{"urn:workbench:", "s#s/e", " ", ">", `\`, `"`, "\n", "\t", "é", "価格", "\xff", "x\x80y"}
	text := func() string {
		var b strings.Builder
		for k := rng.Intn(4); k >= 0; k-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	term := func() rdf.Term {
		switch rng.Intn(4) {
		case 0:
			return rdf.Blank(fmt.Sprintf("b%d", rng.Intn(9)))
		case 1:
			return rdf.Literal(text())
		case 2:
			return rdf.TypedLiteral(text(), rdf.XSDInteger)
		default:
			return rdf.IRI(text())
		}
	}
	for n := 0; n < 300; n++ {
		ops := make([]rdf.ChangeOp, rng.Intn(40))
		for k := range ops {
			ops[k] = rdf.ChangeOp{Add: rng.Intn(3) > 0, T: rdf.Triple{S: term(), P: term(), O: term()}}
		}
		txn := rng.Uint64() >> uint(rng.Intn(64))
		if got, want := EncodeTxn(txn, ops), encodeTxnRef(txn, ops); !bytes.Equal(got, want) {
			t.Fatalf("txn %d with %d ops: EncodeTxn differs from the reference", txn, len(ops))
		}
	}
}
