package p2p

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"io"

	"whisper/internal/wire"
)

// marshalAdv serializes an advertisement struct with an XML header.
func marshalAdv(v any) ([]byte, error) {
	body, err := xml.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(xml.Header)+len(body)+1)
	out = append(out, xml.Header...)
	out = append(out, body...)
	out = append(out, '\n')
	return out, nil
}

// unmarshalAdv parses XML into the advertisement struct.
func unmarshalAdv(data []byte, v any) error {
	return xml.Unmarshal(data, v)
}

func bytesReader(data []byte) io.Reader { return bytes.NewReader(data) }

// A document list is how a peer ships advertisement documents exactly as
// they were published: a uvarint document count, then per document a
// uvarint length and that many bytes (layout: DESIGN.md §8). It answers
// a discovery query and carries a rendezvous member list.

// encodeDocs frames docs.
func encodeDocs(docs [][]byte) []byte {
	size := binary.MaxVarintLen64
	for _, doc := range docs {
		size += binary.MaxVarintLen64 + len(doc)
	}
	out := wire.AppendUvarint(make([]byte, 0, size), uint64(len(docs)))
	for _, doc := range docs {
		out = wire.AppendBytes(out, doc)
	}
	return out
}

// decodeDocs splits a document list into its documents, which alias
// data. Malformed input is wire.ErrMalformed, never a panic.
func decodeDocs(data []byte) ([][]byte, error) {
	r := wire.NewReader(data)
	docs := make([][]byte, r.Count(1))
	for i := range docs {
		docs[i] = r.Bytes()
	}
	return docs, r.Done()
}
