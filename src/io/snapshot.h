// Crash-safe, versioned, checksummed on-disk snapshots of built indexes.
//
// File layout (all integers little-endian):
//
//   FileHeader   (128 bytes)  magic, format version, method name,
//                             build-params fingerprint, dataset binding
//                             (n, dim), section count, header checksum.
//   Section 0    SectionHeader (128 bytes) + payload + zero padding
//   Section 1    ...
//   ...
//
// Every section header records the payload's byte length and 64-bit
// checksum (io::Hash64) plus a checksum of the header itself; payloads are
// padded so each one starts on a 64-byte file offset (the same alignment
// core::Dataset guarantees in memory, keeping an mmap-style loader's SIMD
// contract intact). The reader validates magic, version, both checksums,
// and that every declared length stays inside the file *before* any
// payload is read; decoding then re-validates every count, offset, and
// neighbor id against bounds before allocation. A truncated, bit-flipped,
// or method-swapped file is rejected with a descriptive core::Status —
// never silently searched, never UB.
//
// Crash safety on write: the snapshot is written to "<path>.tmp", fsynced,
// and atomically renamed over <path>, so a crash mid-save leaves either
// the old snapshot or none — never a torn file at <path>.
//
// In-memory copies: SnapshotWriter::ToBytes produces the exact file image
// and SnapshotReader::OpenBytes opens an image, with the same validation
// as a file. Together they are the one way an index is copied (replica
// builds, rebuilds from a peer, attaching replicas to a snapshot already
// read): every copy passes the checksum and bounds checks a load does,
// and none touches the filesystem.

#ifndef GASS_IO_SNAPSHOT_H_
#define GASS_IO_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/align.h"
#include "core/status.h"
#include "io/serialize.h"

namespace gass::io {

/// "GASSSNAP" read as a little-endian u64.
inline constexpr std::uint64_t kSnapshotMagic = 0x50414E5353534147ULL;
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;
/// "GSEC" read as a little-endian u32.
inline constexpr std::uint32_t kSectionMagic = 0x43455347U;

inline constexpr std::size_t kFileHeaderBytes = 128;
inline constexpr std::size_t kSectionHeaderBytes = 128;
/// Payloads are zero-padded so the next section header (and therefore the
/// next payload) starts on this file-offset alignment.
inline constexpr std::size_t kSectionAlignment = core::kCacheLineBytes;
inline constexpr std::size_t kMaxSectionName = 63;
inline constexpr std::size_t kMaxMethodName = 39;

// Byte offsets of fields inside a section header — exported so the
// fault-injection harness can target precise mutations.
inline constexpr std::size_t kSectionNameOffset = 8;
inline constexpr std::size_t kSectionPayloadBytesOffset = 72;
inline constexpr std::size_t kSectionPayloadChecksumOffset = 80;
inline constexpr std::size_t kSectionHeaderChecksumOffset = 120;
// And inside the file header.
inline constexpr std::size_t kFileMethodNameOffset = 16;
inline constexpr std::size_t kFileHeaderChecksumOffset = 120;

/// Payload bytes with the alignment the SIMD kernels expect.
using AlignedBytes =
    std::vector<std::uint8_t,
                core::AlignedAllocator<std::uint8_t, kSectionAlignment>>;

/// Accumulates named sections, then writes the whole snapshot atomically.
class SnapshotWriter {
 public:
  /// `method` is the index's Name(); `params_fingerprint` a stable hash of
  /// its build parameters; `data_n`/`data_dim` bind the snapshot to the
  /// dataset it was built over.
  SnapshotWriter(std::string method, std::uint64_t params_fingerprint,
                 std::uint64_t data_n, std::uint64_t data_dim);

  /// Adds one section. Names must be unique, non-empty, and at most
  /// kMaxSectionName bytes.
  core::Status AddSection(const std::string& name, Encoder&& payload);

  /// Writes "<path>.tmp", fsyncs, renames onto `path`.
  core::Status WriteTo(const std::string& path) const;

  /// The bytes WriteTo would write, in memory (see OpenBytes).
  core::Status ToBytes(std::vector<std::uint8_t>* out) const;

  std::size_t section_count() const { return sections_.size(); }

 private:
  struct Section {
    std::string name;
    std::vector<std::uint8_t> payload;
  };

  /// Streams the image through `write`; false when a write came up short.
  bool Emit(const std::function<bool(const void*, std::size_t)>& write) const;

  std::string method_;
  std::uint64_t params_fingerprint_;
  std::uint64_t data_n_;
  std::uint64_t data_dim_;
  std::vector<Section> sections_;
};

/// One section's location inside an opened snapshot.
struct SectionInfo {
  std::string name;
  std::uint64_t header_offset = 0;   ///< File offset of the section header.
  std::uint64_t payload_offset = 0;  ///< File offset of the payload.
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_checksum = 0;
};

/// Validates a snapshot's structure on open, then serves checksum-verified
/// section payloads on demand (sections are read lazily, so a loader that
/// rejects the header never touches multi-GB payloads).
class SnapshotReader {
 public:
  /// Opens and fully validates headers: magic, version, header checksums,
  /// section-table bounds, duplicate names, trailing bytes.
  static core::Status Open(const std::string& path, SnapshotReader* out);

  /// Opens an in-memory image (SnapshotWriter::ToBytes, or a snapshot
  /// file's bytes already read) with the same validation as Open. Sections
  /// are then served from `bytes`, which the reader (and its copies)
  /// share; `label` names the image in error messages.
  static core::Status OpenBytes(
      std::shared_ptr<const std::vector<std::uint8_t>> bytes,
      std::string label, SnapshotReader* out);

  /// The file path, or an in-memory image's label.
  const std::string& path() const { return path_; }
  const std::string& method() const { return method_; }
  std::uint64_t params_fingerprint() const { return params_fingerprint_; }
  std::uint64_t data_n() const { return data_n_; }
  std::uint64_t data_dim() const { return data_dim_; }

  const std::vector<SectionInfo>& sections() const { return sections_; }
  bool HasSection(const std::string& name) const;

  /// Reads one payload into an aligned buffer and verifies its checksum.
  core::Status ReadSection(const std::string& name, AlignedBytes* out) const;

  /// ReadSection + a Decoder whose error context names the section.
  core::Status OpenSection(const std::string& name, AlignedBytes* buffer,
                           Decoder* dec) const;

 private:
  /// Reads `len` bytes at `offset` of the image; false on a short read.
  using ReadAt = std::function<bool(std::uint64_t, void*, std::size_t)>;

  /// Validates the header and section table of an image of `size` bytes
  /// and fills `reader`'s layout; `reader->path_` labels the errors.
  static core::Status ParseLayout(const ReadAt& read, std::uint64_t size,
                                  SnapshotReader* reader);

  std::string path_;  ///< File path, or the label of an in-memory image.
  /// The image for OpenBytes readers; null when sections come from path_.
  std::shared_ptr<const std::vector<std::uint8_t>> bytes_;
  std::string method_;
  std::uint64_t params_fingerprint_ = 0;
  std::uint64_t data_n_ = 0;
  std::uint64_t data_dim_ = 0;
  std::vector<SectionInfo> sections_;
};

}  // namespace gass::io

#endif  // GASS_IO_SNAPSHOT_H_
