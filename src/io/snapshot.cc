#include "io/snapshot.h"

#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "io/fs.h"
#include "io/hash.h"

namespace gass::io {
namespace {

// Far above any real index (ELPIS at thousands of leaves stays well under
// this), low enough that a corrupt count cannot drive an unbounded scan.
constexpr std::uint64_t kMaxSections = 1u << 20;

std::uint64_t AlignUp(std::uint64_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

void PutU32(std::uint8_t* base, std::size_t offset, std::uint32_t v) {
  std::memcpy(base + offset, &v, sizeof(v));
}

void PutU64(std::uint8_t* base, std::size_t offset, std::uint64_t v) {
  std::memcpy(base + offset, &v, sizeof(v));
}

std::uint32_t GetU32(const std::uint8_t* base, std::size_t offset) {
  std::uint32_t v;
  std::memcpy(&v, base + offset, sizeof(v));
  return v;
}

std::uint64_t GetU64(const std::uint8_t* base, std::size_t offset) {
  std::uint64_t v;
  std::memcpy(&v, base + offset, sizeof(v));
  return v;
}

/// RAII FILE handle.
struct File {
  std::FILE* f = nullptr;
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

SnapshotWriter::SnapshotWriter(std::string method,
                               std::uint64_t params_fingerprint,
                               std::uint64_t data_n, std::uint64_t data_dim)
    : method_(std::move(method)),
      params_fingerprint_(params_fingerprint),
      data_n_(data_n),
      data_dim_(data_dim) {}

core::Status SnapshotWriter::AddSection(const std::string& name,
                                        Encoder&& payload) {
  if (name.empty() || name.size() > kMaxSectionName) {
    return core::Status::InvalidArgument("bad section name '" + name + "'");
  }
  for (const Section& s : sections_) {
    if (s.name == name) {
      return core::Status::InvalidArgument("duplicate section '" + name +
                                           "'");
    }
  }
  sections_.push_back(Section{name, payload.Take()});
  return core::Status::Ok();
}

bool SnapshotWriter::Emit(
    const std::function<bool(const void*, std::size_t)>& write) const {
  std::uint8_t header[kFileHeaderBytes] = {};
  PutU64(header, 0, kSnapshotMagic);
  PutU32(header, 8, kSnapshotFormatVersion);
  PutU32(header, 12, static_cast<std::uint32_t>(method_.size()));
  std::memcpy(header + kFileMethodNameOffset, method_.data(), method_.size());
  PutU64(header, 56, params_fingerprint_);
  PutU64(header, 64, data_n_);
  PutU64(header, 72, data_dim_);
  PutU64(header, 80, sections_.size());
  PutU64(header, kFileHeaderChecksumOffset,
         Hash64(header, kFileHeaderChecksumOffset));
  if (!write(header, kFileHeaderBytes)) return false;

  std::uint64_t offset = kFileHeaderBytes;
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Section& section = sections_[i];
    std::uint8_t sh[kSectionHeaderBytes] = {};
    PutU32(sh, 0, kSectionMagic);
    PutU32(sh, 4, static_cast<std::uint32_t>(section.name.size()));
    std::memcpy(sh + kSectionNameOffset, section.name.data(),
                section.name.size());
    PutU64(sh, kSectionPayloadBytesOffset, section.payload.size());
    PutU64(sh, kSectionPayloadChecksumOffset,
           Hash64(section.payload.data(), section.payload.size()));
    PutU64(sh, 88, i);
    PutU64(sh, kSectionHeaderChecksumOffset,
           Hash64(sh, kSectionHeaderChecksumOffset));
    if (!write(sh, kSectionHeaderBytes)) return false;
    if (!section.payload.empty() &&
        !write(section.payload.data(), section.payload.size())) {
      return false;
    }
    offset += kSectionHeaderBytes + section.payload.size();
    const std::uint64_t padded = AlignUp(offset);
    static const std::uint8_t zeros[kSectionAlignment] = {};
    if (padded != offset && !write(zeros, padded - offset)) return false;
    offset = padded;
  }
  return true;
}

core::Status SnapshotWriter::ToBytes(std::vector<std::uint8_t>* out) const {
  if (method_.size() > kMaxMethodName) {
    return core::Status::InvalidArgument("method name too long: " + method_);
  }
  std::size_t total = kFileHeaderBytes;
  for (const Section& section : sections_) {
    total = AlignUp(total + kSectionHeaderBytes + section.payload.size());
  }
  out->clear();
  out->reserve(total);
  Emit([out](const void* data, std::size_t len) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    out->insert(out->end(), bytes, bytes + len);
    return true;
  });
  return core::Status::Ok();
}

core::Status SnapshotWriter::WriteTo(const std::string& path) const {
  if (method_.size() > kMaxMethodName) {
    return core::Status::InvalidArgument("method name too long: " + method_);
  }

  const std::string tmp = path + ".tmp";
  File file;
  file.f = std::fopen(tmp.c_str(), "wb");
  if (file.f == nullptr) {
    return core::Status::IoError("cannot create " + tmp);
  }
  if (!Emit([&file](const void* data, std::size_t len) {
        return std::fwrite(data, 1, len, file.f) == len;
      })) {
    return core::Status::IoError("short write to " + tmp);
  }

  // Flush user-space buffers, then the kernel's, before the rename makes
  // the snapshot visible — crash-safety hinges on this ordering.
  if (std::fflush(file.f) != 0 || fsync(fileno(file.f)) != 0) {
    return core::Status::IoError("cannot flush " + tmp);
  }
  std::fclose(file.f);
  file.f = nullptr;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return core::Status::IoError("cannot rename " + tmp + " to " + path);
  }
  // The rename lives in the parent directory's metadata; without this
  // fsync a power failure can roll the directory back to the old entry
  // even though the data file itself was flushed above.
  return FsyncParentDirectory(path);
}

core::Status SnapshotReader::Open(const std::string& path,
                                  SnapshotReader* out) {
  File file;
  file.f = std::fopen(path.c_str(), "rb");
  if (file.f == nullptr) {
    return core::Status::IoError("cannot open " + path);
  }
  if (std::fseek(file.f, 0, SEEK_END) != 0) {
    return core::Status::IoError("cannot seek " + path);
  }
  const long file_size_long = std::ftell(file.f);
  if (file_size_long < 0) {
    return core::Status::IoError("cannot stat " + path);
  }
  SnapshotReader reader;
  reader.path_ = path;
  GASS_RETURN_IF_ERROR(ParseLayout(
      [&file](std::uint64_t offset, void* dst, std::size_t len) {
        return std::fseek(file.f, static_cast<long>(offset), SEEK_SET) == 0 &&
               std::fread(dst, 1, len, file.f) == len;
      },
      static_cast<std::uint64_t>(file_size_long), &reader));
  *out = std::move(reader);
  return core::Status::Ok();
}

core::Status SnapshotReader::OpenBytes(
    std::shared_ptr<const std::vector<std::uint8_t>> bytes, std::string label,
    SnapshotReader* out) {
  SnapshotReader reader;
  reader.path_ = std::move(label);
  const std::vector<std::uint8_t>& image = *bytes;
  GASS_RETURN_IF_ERROR(ParseLayout(
      [&image](std::uint64_t offset, void* dst, std::size_t len) {
        if (offset > image.size() || len > image.size() - offset) return false;
        if (len > 0) std::memcpy(dst, image.data() + offset, len);
        return true;
      },
      image.size(), &reader));
  reader.bytes_ = std::move(bytes);
  *out = std::move(reader);
  return core::Status::Ok();
}

core::Status SnapshotReader::ParseLayout(const ReadAt& read,
                                         std::uint64_t file_size,
                                         SnapshotReader* reader) {
  const std::string& path = reader->path_;
  if (file_size < kFileHeaderBytes) {
    return core::Status::Corruption(path +
                                    ": file shorter than snapshot header");
  }
  std::uint8_t header[kFileHeaderBytes];
  if (!read(0, header, kFileHeaderBytes)) {
    return core::Status::IoError("cannot read header of " + path);
  }
  if (GetU64(header, 0) != kSnapshotMagic) {
    return core::Status::Corruption(path + ": not a GASS snapshot (bad magic)");
  }
  const std::uint32_t version = GetU32(header, 8);
  if (version != kSnapshotFormatVersion) {
    return core::Status::InvalidArgument(
        path + ": unsupported snapshot format version " +
        std::to_string(version) + " (reader supports " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }
  if (GetU64(header, kFileHeaderChecksumOffset) !=
      Hash64(header, kFileHeaderChecksumOffset)) {
    return core::Status::Corruption(path + ": file header checksum mismatch");
  }
  const std::uint32_t method_len = GetU32(header, 12);
  if (method_len > kMaxMethodName) {
    return core::Status::Corruption(path + ": method name length " +
                                    std::to_string(method_len) +
                                    " out of range");
  }

  reader->method_.assign(
      reinterpret_cast<const char*>(header + kFileMethodNameOffset),
      method_len);
  reader->params_fingerprint_ = GetU64(header, 56);
  reader->data_n_ = GetU64(header, 64);
  reader->data_dim_ = GetU64(header, 72);
  const std::uint64_t section_count = GetU64(header, 80);
  if (section_count > kMaxSections) {
    return core::Status::Corruption(path + ": section count " +
                                    std::to_string(section_count) +
                                    " out of range");
  }

  std::uint64_t offset = kFileHeaderBytes;
  reader->sections_.reserve(section_count);
  for (std::uint64_t i = 0; i < section_count; ++i) {
    const std::string ordinal = "section " + std::to_string(i);
    if (offset + kSectionHeaderBytes > file_size) {
      return core::Status::Corruption(
          path + ": " + ordinal + ": file truncated inside section header");
    }
    std::uint8_t sh[kSectionHeaderBytes];
    if (!read(offset, sh, kSectionHeaderBytes)) {
      return core::Status::IoError(path + ": cannot read " + ordinal +
                                   " header");
    }
    if (GetU32(sh, 0) != kSectionMagic) {
      return core::Status::Corruption(path + ": " + ordinal +
                                      ": bad section magic");
    }
    if (GetU64(sh, kSectionHeaderChecksumOffset) !=
        Hash64(sh, kSectionHeaderChecksumOffset)) {
      return core::Status::Corruption(path + ": " + ordinal +
                                      ": section header checksum mismatch");
    }
    const std::uint32_t name_len = GetU32(sh, 4);
    if (name_len == 0 || name_len > kMaxSectionName) {
      return core::Status::Corruption(path + ": " + ordinal +
                                      ": section name length out of range");
    }
    SectionInfo info;
    info.name.assign(reinterpret_cast<const char*>(sh + kSectionNameOffset),
                     name_len);
    info.header_offset = offset;
    info.payload_offset = offset + kSectionHeaderBytes;
    info.payload_bytes = GetU64(sh, kSectionPayloadBytesOffset);
    info.payload_checksum = GetU64(sh, kSectionPayloadChecksumOffset);
    if (GetU64(sh, 88) != i) {
      return core::Status::Corruption(path + ": section '" + info.name +
                                      "': section index mismatch");
    }
    if (info.payload_bytes > file_size - info.payload_offset) {
      return core::Status::Corruption(path + ": section '" + info.name +
                                      "': payload extends past end of file");
    }
    for (const SectionInfo& prior : reader->sections_) {
      if (prior.name == info.name) {
        return core::Status::Corruption(path + ": duplicate section '" +
                                        info.name + "'");
      }
    }
    offset = AlignUp(info.payload_offset + info.payload_bytes);
    reader->sections_.push_back(std::move(info));
  }
  if (offset != AlignUp(file_size) || file_size < offset - kSectionAlignment ||
      file_size > offset) {
    // The last section's padding may be absent (offset rounds past EOF by
    // less than one alignment unit); anything else is trailing garbage or
    // truncation.
    return core::Status::Corruption(path +
                                    ": file size does not match section table");
  }
  return core::Status::Ok();
}

bool SnapshotReader::HasSection(const std::string& name) const {
  for (const SectionInfo& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

core::Status SnapshotReader::ReadSection(const std::string& name,
                                         AlignedBytes* out) const {
  const SectionInfo* info = nullptr;
  for (const SectionInfo& s : sections_) {
    if (s.name == name) {
      info = &s;
      break;
    }
  }
  if (info == nullptr) {
    return core::Status::Corruption(path_ + ": missing section '" + name +
                                    "'");
  }
  out->resize(info->payload_bytes);
  if (bytes_ != nullptr) {
    // Bounds were validated against the image when it was opened.
    if (info->payload_bytes > 0) {
      std::memcpy(out->data(), bytes_->data() + info->payload_offset,
                  info->payload_bytes);
    }
  } else {
    File file;
    file.f = std::fopen(path_.c_str(), "rb");
    if (file.f == nullptr) {
      return core::Status::IoError("cannot open " + path_);
    }
    if (std::fseek(file.f, static_cast<long>(info->payload_offset),
                   SEEK_SET) != 0 ||
        (info->payload_bytes > 0 &&
         std::fread(out->data(), 1, info->payload_bytes, file.f) !=
             info->payload_bytes)) {
      return core::Status::IoError(path_ + ": cannot read section '" + name +
                                   "'");
    }
  }
  if (Hash64(out->data(), out->size()) != info->payload_checksum) {
    return core::Status::Corruption(path_ + ": section '" + name +
                                    "': payload checksum mismatch");
  }
  return core::Status::Ok();
}

core::Status SnapshotReader::OpenSection(const std::string& name,
                                         AlignedBytes* buffer,
                                         Decoder* dec) const {
  GASS_RETURN_IF_ERROR(ReadSection(name, buffer));
  *dec = Decoder(buffer->data(), buffer->size(), "section '" + name + "'");
  return core::Status::Ok();
}

}  // namespace gass::io
