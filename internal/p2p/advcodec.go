package p2p

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
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

// The answer to a discovery query is the selected advertisement
// documents exactly as they were published, framed (layout: DESIGN.md
// §8): a uvarint document count, then per document a uvarint length and
// that many bytes. Count and lengths are checked against the bytes that
// remain before anything is sized from them.

// encodeDiscoveryResponse frames docs.
func encodeDiscoveryResponse(docs [][]byte) []byte {
	size := binary.MaxVarintLen64
	for _, doc := range docs {
		size += binary.MaxVarintLen64 + len(doc)
	}
	out := binary.AppendUvarint(make([]byte, 0, size), uint64(len(docs)))
	for _, doc := range docs {
		out = append(binary.AppendUvarint(out, uint64(len(doc))), doc...)
	}
	return out
}

// decodeDiscoveryResponse splits a frame into its documents, which
// alias data. Malformed input is an ErrDiscoveryResponse, never a
// panic.
func decodeDiscoveryResponse(data []byte) ([][]byte, error) {
	count, n := binary.Uvarint(data)
	// Every document spends at least its length byte.
	if n <= 0 || count > uint64(len(data)-n) {
		return nil, fmt.Errorf("%w: document count", ErrDiscoveryResponse)
	}
	rest := data[n:]
	docs := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		size, n := binary.Uvarint(rest)
		if n <= 0 || size > uint64(len(rest)-n) {
			return nil, fmt.Errorf("%w: document %d of %d", ErrDiscoveryResponse, i+1, count)
		}
		end := n + int(size)
		docs = append(docs, rest[n:end:end])
		rest = rest[end:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrDiscoveryResponse, len(rest))
	}
	return docs, nil
}
