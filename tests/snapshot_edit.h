// Byte-level snapshot edits for corruption tests: overwrite a field, then
// re-seal the checksums that cover it, so the mutation reaches the loader's
// own checks instead of tripping the checksum layer.

#ifndef GASS_TESTS_SNAPSHOT_EDIT_H_
#define GASS_TESTS_SNAPSHOT_EDIT_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "io/hash.h"
#include "io/snapshot.h"

namespace gass::testing {

inline void PutU64At(std::vector<std::uint8_t>* bytes, std::size_t offset,
                     std::uint64_t v) {
  std::memcpy(bytes->data() + offset, &v, sizeof(v));
}

/// Re-seals a section header after its bytes were edited.
inline void ResealSectionHeader(std::vector<std::uint8_t>* bytes,
                                std::uint64_t header_offset) {
  PutU64At(bytes, header_offset + io::kSectionHeaderChecksumOffset,
           io::Hash64(bytes->data() + header_offset,
                      io::kSectionHeaderChecksumOffset));
}

/// Re-seals a section after its payload was edited: the payload checksum,
/// then the header that holds it.
inline void ResealSectionPayload(std::vector<std::uint8_t>* bytes,
                                 const io::SectionInfo& section) {
  PutU64At(bytes, section.header_offset + io::kSectionPayloadChecksumOffset,
           io::Hash64(bytes->data() + section.payload_offset,
                      section.payload_bytes));
  ResealSectionHeader(bytes, section.header_offset);
}

inline void ResealFileHeader(std::vector<std::uint8_t>* bytes) {
  PutU64At(bytes, io::kFileHeaderChecksumOffset,
           io::Hash64(bytes->data(), io::kFileHeaderChecksumOffset));
}

}  // namespace gass::testing

#endif  // GASS_TESTS_SNAPSHOT_EDIT_H_
