// Package checkpoint implements the durable snapshot file format behind
// the transport server's crash recovery: a versioned, CRC-guarded
// container for a gob-encoded state payload, written atomically (temp
// file + rename) so a crash mid-write can never leave a half-written
// snapshot in place of a good one.
//
// File layout:
//
//	offset 0   8 bytes   magic "AFLCKPT\x00"
//	offset 8   4 bytes   format version (big endian)
//	offset 12  8 bytes   payload length (big endian)
//	offset 20  n bytes   gob-encoded payload
//	offset 20+n 4 bytes  CRC-32 (IEEE) over bytes [8, 20+n)
//
// Load never restores partial state: any truncation, checksum mismatch or
// header damage surfaces as ErrCorrupt, and a snapshot written by a
// different format version surfaces as ErrVersion, before a single
// payload byte is decoded into the caller's state.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// FormatVersion is the snapshot format written by Save and accepted by
// Load.
const FormatVersion = 1

const (
	magic      = "AFLCKPT\x00"
	headerSize = len(magic) + 4 + 8 // magic + version + payload length
	crcSize    = 4
)

// Typed failure classes. Callers match with errors.Is; the returned
// errors additionally carry file-specific detail.
var (
	// ErrCorrupt reports a snapshot that is truncated, has a damaged
	// header, or fails its CRC check.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrVersion reports a snapshot written by an unsupported format
	// version.
	ErrVersion = errors.New("checkpoint: unsupported snapshot format version")
)

// Encode serializes state into the checkpoint container format — the same
// magic, format version, length header and CRC trailer Save writes to
// disk, as an in-memory byte slice. The hierarchical deployments use it to
// carry filter-state handoffs over the wire with the same corruption
// guarantees a snapshot file gets: a truncated or bit-flipped payload is
// detected by Decode before any state is touched.
func Encode(state any) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(state); err != nil {
		return nil, fmt.Errorf("checkpoint: encode state: %w", err)
	}
	buf := make([]byte, 0, headerSize+payload.Len()+crcSize)
	buf = append(buf, magic...)
	buf = binary.BigEndian.AppendUint32(buf, FormatVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(payload.Len()))
	buf = append(buf, payload.Bytes()...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(magic):]))
	return buf, nil
}

// Decode validates a checkpoint container produced by Encode (or read back
// from a Save file) and decodes its payload into state, which must be a
// pointer to the encoded type. Damage surfaces as ErrCorrupt or
// ErrVersion without touching state. where names the container's origin in
// error messages.
func Decode(raw []byte, state any, where string) error {
	if len(raw) < headerSize+crcSize {
		return fmt.Errorf("%w: %s holds %d bytes, header alone needs %d",
			ErrCorrupt, where, len(raw), headerSize+crcSize)
	}
	if string(raw[:len(magic)]) != magic {
		return fmt.Errorf("%w: %s has no checkpoint magic", ErrCorrupt, where)
	}
	version := binary.BigEndian.Uint32(raw[len(magic) : len(magic)+4])
	if version != FormatVersion {
		return fmt.Errorf("%w: %s has format version %d, this build reads %d",
			ErrVersion, where, version, FormatVersion)
	}
	payloadLen := binary.BigEndian.Uint64(raw[len(magic)+4 : headerSize])
	if uint64(len(raw)) != uint64(headerSize)+payloadLen+crcSize {
		return fmt.Errorf("%w: %s declares %d payload bytes but holds %d total",
			ErrCorrupt, where, payloadLen, len(raw))
	}
	body := raw[len(magic) : len(raw)-crcSize]
	want := binary.BigEndian.Uint32(raw[len(raw)-crcSize:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return fmt.Errorf("%w: %s CRC mismatch (stored %08x, computed %08x)",
			ErrCorrupt, where, want, got)
	}
	payload := raw[headerSize : len(raw)-crcSize]
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(state); err != nil {
		return fmt.Errorf("%w: %s payload does not decode: %v", ErrCorrupt, where, err)
	}
	return nil
}

// Fingerprint validates a checkpoint container and returns its payload
// CRC — a cheap, stable identity for "the same state bytes". The
// replicated root's tests and failover drill use it to prove a promoted
// standby's state is byte-comparable to a reference merge without
// shipping either side around. Damage surfaces as ErrCorrupt/ErrVersion.
func Fingerprint(raw []byte) (uint32, error) {
	if len(raw) < headerSize+crcSize {
		return 0, fmt.Errorf("%w: container holds %d bytes, header alone needs %d",
			ErrCorrupt, len(raw), headerSize+crcSize)
	}
	if string(raw[:len(magic)]) != magic {
		return 0, fmt.Errorf("%w: container has no checkpoint magic", ErrCorrupt)
	}
	version := binary.BigEndian.Uint32(raw[len(magic) : len(magic)+4])
	if version != FormatVersion {
		return 0, fmt.Errorf("%w: container has format version %d, this build reads %d",
			ErrVersion, version, FormatVersion)
	}
	payloadLen := binary.BigEndian.Uint64(raw[len(magic)+4 : headerSize])
	if uint64(len(raw)) != uint64(headerSize)+payloadLen+crcSize {
		return 0, fmt.Errorf("%w: container declares %d payload bytes but holds %d total",
			ErrCorrupt, payloadLen, len(raw))
	}
	body := raw[len(magic) : len(raw)-crcSize]
	want := binary.BigEndian.Uint32(raw[len(raw)-crcSize:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return 0, fmt.Errorf("%w: container CRC mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	return want, nil
}

// Save atomically writes state to path: the snapshot is encoded and
// checksummed into a temporary file in path's directory, synced, and
// renamed over path, and the directory is synced so the rename itself
// survives power loss. A crash at any point leaves either the previous
// snapshot or the new one, never a torn mix.
func Save(path string, state any) error {
	buf, err := Encode(state)
	if err != nil {
		return err
	}

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpName) }
	if _, err := tmp.Write(buf); err != nil {
		_ = tmp.Close()
		cleanup()
		return fmt.Errorf("checkpoint: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		cleanup()
		return fmt.Errorf("checkpoint: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: rename into place: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: open dir %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return fmt.Errorf("checkpoint: sync dir %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("checkpoint: close dir %s: %w", dir, err)
	}
	return nil
}

// Load reads the snapshot at path into state, which must be a pointer to
// the same type that was saved. Missing files surface the underlying
// fs.ErrNotExist; damaged files surface ErrCorrupt or ErrVersion without
// touching state.
func Load(path string, state any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	return Decode(raw, state, path)
}
