// Fencing epoch: the store persists a leadership epoch so a deposed leader
// cannot keep accepting writes and fork history. Every store starts at epoch
// 1; promoting a follower bumps its epoch past the highest one it has seen,
// and any store that learns of a higher epoch (a follower handshake, an
// operator command) fences itself — all further writes fail with ErrFenced
// until an explicit BumpEpoch re-arms it as the new leader. The epoch file
// survives restarts: a fenced leader stays fenced across a reboot.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// ErrFenced rejects writes on a store that has seen a higher leadership
// epoch: another node was promoted, and accepting this write would fork
// history. Reads stay valid (the data is consistent, just stale).
var ErrFenced = errors.New("store: fenced by a newer leader epoch")

// Epoch file layout (epoch.fence, 28 bytes): magic "SACEPOC1", the store's
// own epoch, the highest foreign epoch that fenced it (0 = not fenced), and
// a CRC-32 of the first 24 bytes. Written through installFile (tmp, fsync,
// rename, dir-fsync) so a crash can never leave a half-written fence.

var epochMagic = [8]byte{'S', 'A', 'C', 'E', 'P', 'O', 'C', '1'}

const epochFile = "epoch.fence"

func writeEpochFile(dir string, epoch, fencedBy uint64) error {
	var buf [28]byte
	copy(buf[:8], epochMagic[:])
	binary.LittleEndian.PutUint64(buf[8:], epoch)
	binary.LittleEndian.PutUint64(buf[16:], fencedBy)
	binary.LittleEndian.PutUint32(buf[24:], crc32.ChecksumIEEE(buf[:24]))
	err := installFile(dir, epochFile, func(f *os.File) error {
		_, err := f.Write(buf[:])
		return err
	})
	if err != nil {
		return fmt.Errorf("store: writing epoch file: %w", err)
	}
	return nil
}

func loadEpochFile(dir string) (epoch, fencedBy uint64, found bool, err error) {
	buf, err := os.ReadFile(filepath.Join(dir, epochFile))
	if os.IsNotExist(err) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("store: reading epoch file: %w", err)
	}
	if len(buf) != 28 || [8]byte(buf[:8]) != epochMagic {
		return 0, 0, false, fmt.Errorf("store: %s is not an epoch file", epochFile)
	}
	if binary.LittleEndian.Uint32(buf[24:]) != crc32.ChecksumIEEE(buf[:24]) {
		return 0, 0, false, fmt.Errorf("store: %s has a corrupt header", epochFile)
	}
	return binary.LittleEndian.Uint64(buf[8:]), binary.LittleEndian.Uint64(buf[16:]), true, nil
}

// Epoch returns the store's current leadership epoch.
func (s *Store) Epoch() uint64 {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.epoch
}

// FencedBy returns the foreign epoch that fenced this store, or 0 when it is
// free to accept writes.
func (s *Store) FencedBy() uint64 {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.fencedBy
}

// Fenced reports whether writes are currently rejected with ErrFenced.
func (s *Store) Fenced() bool { return s.fenced.Load() }

// Fence records that epoch `by` exists elsewhere. When by exceeds the
// store's own epoch the store fences itself — durably, before any
// rejection is promised — and all later writes fail with ErrFenced, those
// already queued in the engine included: once Fence returns, the WAL's last
// sequence never moves again. A by at or below the current epoch is stale
// news and a no-op.
func (s *Store) Fence(by uint64) error {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if by <= s.epoch || by <= s.fencedBy {
		return nil
	}
	if err := writeEpochFile(s.dir, s.epoch, by); err != nil {
		return err
	}
	s.fencedBy = by
	s.fenced.Store(true)
	return nil
}

// BumpEpoch promotes the store to leadership: its new epoch exceeds both its
// old one and any epoch that fenced it, the fence is cleared, and the result
// is persisted before writes are accepted again. Returns the new epoch.
func (s *Store) BumpEpoch() (uint64, error) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	next := s.epoch + 1
	if s.fencedBy >= next {
		next = s.fencedBy + 1
	}
	if err := writeEpochFile(s.dir, next, 0); err != nil {
		return s.epoch, err
	}
	s.epoch = next
	s.fencedBy = 0
	s.fenced.Store(false)
	return next, nil
}
