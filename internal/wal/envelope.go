package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The DICECKS1 envelope frames whole-file state — gateway checkpoints and
// saved contexts — the way segment frames guard WAL records:
//
//	["DICECKS1":8][crc32c(payload):4][payload]
//
// The CRC is Castagnoli, as for WAL frames, so a torn write or bit rot
// anywhere in the file, header included, fails closed.
var envelopeMagic = [8]byte{'D', 'I', 'C', 'E', 'C', 'K', 'S', '1'}

const envelopeHeader = 12

// ErrEnvelope marks bytes that are not an intact envelope: shorter than
// the header, missing the magic, or failing the CRC. Callers wrap it in
// their own corruption error.
var ErrEnvelope = errors.New("wal: bad envelope")

// SealEnvelope returns payload wrapped in a DICECKS1 envelope.
func SealEnvelope(payload []byte) []byte {
	out := make([]byte, envelopeHeader+len(payload))
	copy(out, envelopeMagic[:])
	binary.LittleEndian.PutUint32(out[8:envelopeHeader], crc32.Checksum(payload, castagnoli))
	copy(out[envelopeHeader:], payload)
	return out
}

// OpenEnvelope verifies an envelope written by SealEnvelope and returns
// its payload, which aliases data.
func OpenEnvelope(data []byte) ([]byte, error) {
	if len(data) < envelopeHeader || [8]byte(data[:8]) != envelopeMagic {
		return nil, fmt.Errorf("%w: no DICECKS1 header", ErrEnvelope)
	}
	payload := data[envelopeHeader:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[8:envelopeHeader]) {
		return nil, fmt.Errorf("%w: payload fails CRC", ErrEnvelope)
	}
	return payload, nil
}
