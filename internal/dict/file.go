package dict

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// On-disk artifact layout (version 1):
//
//	magic   "CPSDICT1"                        8 bytes
//	hlen    uint32 LE                         4 bytes
//	header  JSON-encoded Meta                 hlen bytes
//	entries Meta.Entries records, each:
//	          uvarint fault-key length
//	          fault key bytes
//	          Out bitset  (see codec.go)
//	          Leak bitset
//	footer  SHA-256 of everything above       32 bytes
//
// Every multi-byte integer is little-endian. The checksum makes a
// truncated or bit-rotted artifact fail loudly on load instead of
// silently mis-diagnosing.

const (
	magic         = "CPSDICT1"
	formatVersion = 1
	maxHeaderLen  = 1 << 20
	// minEntryLen is the smallest entry record: an empty fault key's
	// length byte and two bitsets of one codec byte and one length
	// byte each.
	minEntryLen = 5
)

// Marshal serialises the dictionary into the versioned artifact form.
// The dictionary is normalised first, so equal content yields equal
// bytes regardless of the order entries were appended in.
func (d *Dictionary) Marshal() ([]byte, error) {
	d.Meta.Version = formatVersion
	if err := d.Normalize(); err != nil {
		return nil, err
	}
	header, err := json.Marshal(d.Meta)
	if err != nil {
		return nil, err
	}
	if len(header) > maxHeaderLen {
		return nil, fmt.Errorf("dict: header %d bytes exceeds %d", len(header), maxHeaderLen)
	}
	out := make([]byte, 0, len(header)+64*len(d.Entries)+44)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(header)))
	out = append(out, header...)
	var buf [binary.MaxVarintLen64]byte
	for i := range d.Entries {
		e := &d.Entries[i]
		out = append(out, buf[:binary.PutUvarint(buf[:], uint64(len(e.Fault)))]...)
		out = append(out, e.Fault...)
		out = appendBitset(out, e.Out)
		out = appendBitset(out, e.Leak)
	}
	sum := sha256.Sum256(out)
	return append(out, sum[:]...), nil
}

// Write streams the artifact to w.
func (d *Dictionary) Write(w io.Writer) error {
	raw, err := d.Marshal()
	if err != nil {
		return err
	}
	_, err = w.Write(raw)
	return err
}

// Unmarshal parses and checksum-verifies an artifact.
func Unmarshal(raw []byte) (*Dictionary, error) {
	if len(raw) < len(magic)+4+sha256.Size {
		return nil, fmt.Errorf("dict: artifact truncated (%d bytes)", len(raw))
	}
	if string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("dict: bad magic %q", raw[:len(magic)])
	}
	body, footer := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], footer) {
		return nil, fmt.Errorf("dict: checksum mismatch — artifact corrupt or truncated")
	}
	hlen := binary.LittleEndian.Uint32(raw[len(magic):])
	if hlen > maxHeaderLen || int(hlen) > len(body)-len(magic)-4 {
		return nil, fmt.Errorf("dict: header length %d out of range", hlen)
	}
	rest := body[len(magic)+4:]
	d := &Dictionary{}
	if err := json.Unmarshal(rest[:hlen], &d.Meta); err != nil {
		return nil, fmt.Errorf("dict: bad header: %w", err)
	}
	if d.Meta.Version != formatVersion {
		return nil, fmt.Errorf("dict: unsupported format version %d (want %d)", d.Meta.Version, formatVersion)
	}
	if d.Meta.Patterns < 0 || d.Meta.Entries < 0 {
		return nil, fmt.Errorf("dict: negative dimensions in header")
	}
	if d.Meta.Patterns > MaxPatterns {
		return nil, fmt.Errorf("dict: %d patterns exceeds the %d-pattern ceiling", d.Meta.Patterns, MaxPatterns)
	}
	rest = rest[hlen:]
	if d.Meta.Entries > len(rest)/minEntryLen {
		return nil, fmt.Errorf("dict: header claims %d entries, %d bytes hold at most %d", d.Meta.Entries, len(rest), len(rest)/minEntryLen)
	}
	d.Entries = make([]Entry, 0, d.Meta.Entries)
	for i := 0; i < d.Meta.Entries; i++ {
		klen, sz := binary.Uvarint(rest)
		if sz <= 0 || klen > uint64(len(rest)-sz) {
			return nil, fmt.Errorf("dict: entry %d: truncated fault key", i)
		}
		e := Entry{Fault: string(rest[sz : sz+int(klen)])}
		rest = rest[sz+int(klen):]
		var err error
		if e.Out, rest, err = decodeBitset(rest, d.Meta.Patterns); err != nil {
			return nil, fmt.Errorf("dict: entry %d (%s): %w", i, e.Fault, err)
		}
		if e.Leak, rest, err = decodeBitset(rest, d.Meta.Patterns); err != nil {
			return nil, fmt.Errorf("dict: entry %d (%s): %w", i, e.Fault, err)
		}
		d.Entries = append(d.Entries, e)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("dict: %d trailing bytes after entries", len(rest))
	}
	// Recompute class labels and the resolution summary from the decoded
	// signatures rather than trusting the header copy.
	if err := d.Normalize(); err != nil {
		return nil, err
	}
	return d, nil
}

// Read parses an artifact from r.
func Read(r io.Reader) (*Dictionary, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Unmarshal(raw)
}
