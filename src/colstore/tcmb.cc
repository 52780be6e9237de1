#include "colstore/tcmb.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "colstore/mapped_file.h"
#include "common/check.h"

namespace tcm {
namespace {

constexpr char kMagic[4] = {'T', 'C', 'M', 'B'};
constexpr size_t kPreambleSize = 32;
constexpr size_t kDirectoryEntrySize = 24;  // offset + size + checksum

// FNV-1a 64-bit: the same cheap, dependency-free checksum for the header
// blob and every payload section.
uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

size_t AlignUp8(size_t v) { return (v + 7) & ~size_t{7}; }

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

// Bounds-checked sequential reader over the header blob. Any overrun marks
// the cursor bad; callers test ok once after the full parse instead of
// checking every read.
struct HeaderCursor {
  const char* data;
  size_t size;
  size_t pos = 0;
  bool ok = true;

  uint8_t U8() {
    if (pos + 1 > size) {
      ok = false;
      return 0;
    }
    return static_cast<uint8_t>(data[pos++]);
  }
  uint32_t U32() {
    if (pos + 4 > size) {
      ok = false;
      return 0;
    }
    uint32_t v = LoadU32(data + pos);
    pos += 4;
    return v;
  }
  uint64_t U64() {
    if (pos + 8 > size) {
      ok = false;
      return 0;
    }
    uint64_t v = LoadU64(data + pos);
    pos += 8;
    return v;
  }
  std::string_view Bytes(size_t n) {
    if (n > size || pos > size - n) {
      ok = false;
      return {};
    }
    std::string_view v(data + pos, n);
    pos += n;
    return v;
  }
};

Status Truncated(const std::string& context, const std::string& what) {
  return Status::IoError(context + ": truncated .tcmb file (" + what + ")");
}

Status Malformed(const std::string& context, const std::string& what) {
  return Status::InvalidSpec(context + ": malformed .tcmb file (" + what +
                             ")");
}

size_t PayloadWidth(const Attribute& attr) {
  return attr.is_categorical() ? sizeof(int32_t) : sizeof(double);
}

}  // namespace

Result<std::string> SerializeTcmb(const ColumnTable& table) {
  const Schema& schema = table.schema();
  if (schema.empty()) {
    return Status::InvalidArgument(
        "SerializeTcmb: cannot serialize a zero-column table");
  }
  const size_t rows = table.num_rows();

  // Schema section of the header blob.
  std::string header;
  AppendU64(&header, rows);
  AppendU32(&header, static_cast<uint32_t>(schema.size()));
  for (const Attribute& attr : schema.attributes()) {
    if (attr.name.size() > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("SerializeTcmb: attribute name too long");
    }
    AppendU32(&header, static_cast<uint32_t>(attr.name.size()));
    header.append(attr.name);
    AppendU8(&header, static_cast<uint8_t>(attr.type));
    AppendU8(&header, static_cast<uint8_t>(attr.role));
    const auto& categories = attr.is_categorical()
                                 ? attr.categories
                                 : std::vector<std::string>{};
    AppendU32(&header, static_cast<uint32_t>(categories.size()));
    for (const std::string& label : categories) {
      AppendU32(&header, static_cast<uint32_t>(label.size()));
      header.append(label);
    }
  }

  // Canonical payload placement: packed in column order, each section
  // aligned to 8 bytes so doubles map directly.
  const size_t header_size =
      header.size() + schema.size() * kDirectoryEntrySize;
  std::vector<std::string> payloads(schema.size());
  std::vector<uint64_t> offsets(schema.size());
  size_t cursor = AlignUp8(kPreambleSize + header_size);
  for (size_t c = 0; c < schema.size(); ++c) {
    std::string& payload = payloads[c];
    if (schema.at(c).is_categorical()) {
      std::span<const int32_t> codes = table.CodeColumn(c);
      payload.resize(rows * sizeof(int32_t));
      if (rows > 0) {
        std::memcpy(payload.data(), codes.data(), payload.size());
      }
    } else {
      std::span<const double> values = table.NumericColumn(c);
      payload.resize(rows * sizeof(double));
      if (rows > 0) {
        std::memcpy(payload.data(), values.data(), payload.size());
      }
    }
    cursor = AlignUp8(cursor);
    offsets[c] = cursor;
    cursor += payload.size();
  }
  const size_t file_size = cursor;

  // Payload directory completes the header blob.
  for (size_t c = 0; c < schema.size(); ++c) {
    AppendU64(&header, offsets[c]);
    AppendU64(&header, payloads[c].size());
    AppendU64(&header, Fnv1a64(payloads[c].data(), payloads[c].size()));
  }
  TCM_CHECK_EQ(header.size(), header_size);

  std::string out;
  out.reserve(file_size);
  out.append(kMagic, sizeof(kMagic));
  AppendU32(&out, kTcmbFormatVersion);
  AppendU64(&out, header_size);
  AppendU64(&out, Fnv1a64(header.data(), header.size()));
  AppendU64(&out, file_size);
  out.append(header);
  for (size_t c = 0; c < schema.size(); ++c) {
    out.resize(offsets[c], '\0');  // zero padding up to the aligned offset
    out.append(payloads[c]);
  }
  TCM_CHECK_EQ(out.size(), file_size);
  return out;
}

Status WriteTcmb(const ColumnTable& table, const std::string& path) {
  Result<std::string> image = SerializeTcmb(table);
  if (!image.ok()) return image.status();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open \"" + path + "\" for writing");
  }
  out.write(image->data(), static_cast<std::streamsize>(image->size()));
  out.flush();
  if (!out.good()) {
    return Status::IoError("failed writing \"" + path + "\"");
  }
  return Status::Ok();
}

Result<ColumnTable> ParseTcmb(const char* data, size_t size,
                              std::shared_ptr<const void> owner,
                              const std::string& context) {
  // Preamble. Too-short files are damage (IoError); an intact preamble
  // that is not ours is a spec problem (InvalidSpec).
  if (size < sizeof(kMagic)) return Truncated(context, "no magic");
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidSpec(context + ": not a .tcmb file (bad magic)");
  }
  if (size < 8) return Truncated(context, "no version field");
  const uint32_t version = LoadU32(data + 4);
  if (version != kTcmbFormatVersion) {
    return Status::InvalidSpec(
        context + ": unsupported .tcmb format version " +
        std::to_string(version) + " (expected " +
        std::to_string(kTcmbFormatVersion) + ")");
  }
  if (size < kPreambleSize) return Truncated(context, "preamble");
  const uint64_t header_size = LoadU64(data + 8);
  const uint64_t header_checksum = LoadU64(data + 16);
  const uint64_t declared_size = LoadU64(data + 24);
  if (size < declared_size) {
    return Truncated(context, "file has " + std::to_string(size) +
                                  " bytes, header declares " +
                                  std::to_string(declared_size));
  }
  if (size > declared_size) {
    return Malformed(context, "trailing bytes beyond declared file size");
  }
  if (header_size > declared_size - kPreambleSize) {
    return Malformed(context, "header overruns file");
  }
  const char* header = data + kPreambleSize;
  if (Fnv1a64(header, header_size) != header_checksum) {
    return Status::IoError(context + ": header checksum mismatch");
  }

  // Header blob: schema, then payload directory.
  HeaderCursor cursor{header, static_cast<size_t>(header_size)};
  const uint64_t row_count = cursor.U64();
  const uint32_t column_count = cursor.U32();
  if (cursor.ok && column_count == 0) {
    return Malformed(context, "zero columns");
  }
  if (row_count > std::numeric_limits<size_t>::max() / sizeof(double)) {
    return Malformed(context, "row count overflows");
  }
  std::vector<Attribute> attributes;
  attributes.reserve(cursor.ok ? column_count : 0);
  for (uint32_t c = 0; cursor.ok && c < column_count; ++c) {
    Attribute attr;
    attr.name = std::string(cursor.Bytes(cursor.U32()));
    const uint8_t type = cursor.U8();
    const uint8_t role = cursor.U8();
    if (cursor.ok && type > static_cast<uint8_t>(AttributeType::kNominal)) {
      return Malformed(context, "unknown attribute type " +
                                    std::to_string(type) + " for column \"" +
                                    attr.name + "\"");
    }
    if (cursor.ok && role > static_cast<uint8_t>(AttributeRole::kOther)) {
      return Malformed(context, "unknown attribute role " +
                                    std::to_string(role) + " for column \"" +
                                    attr.name + "\"");
    }
    attr.type = static_cast<AttributeType>(type);
    attr.role = static_cast<AttributeRole>(role);
    const uint32_t category_count = cursor.U32();
    if (cursor.ok && !attr.is_categorical() && category_count != 0) {
      return Malformed(context, "numeric column \"" + attr.name +
                                    "\" carries a dictionary");
    }
    attr.categories.reserve(cursor.ok ? category_count : 0);
    for (uint32_t i = 0; cursor.ok && i < category_count; ++i) {
      attr.categories.emplace_back(cursor.Bytes(cursor.U32()));
    }
    attributes.push_back(std::move(attr));
  }
  struct DirectoryEntry {
    uint64_t offset;
    uint64_t size;
    uint64_t checksum;
  };
  std::vector<DirectoryEntry> directory;
  directory.reserve(cursor.ok ? column_count : 0);
  for (uint32_t c = 0; cursor.ok && c < column_count; ++c) {
    DirectoryEntry entry;
    entry.offset = cursor.U64();
    entry.size = cursor.U64();
    entry.checksum = cursor.U64();
    directory.push_back(entry);
  }
  if (!cursor.ok) {
    return Malformed(context, "header ends mid-field");
  }
  if (cursor.pos != header_size) {
    return Malformed(context, "header has trailing bytes");
  }

  // Directory must describe the canonical packed layout the writer
  // produces: 8-aligned sections in column order, ending exactly at the
  // declared file size.
  Schema schema{std::move(attributes)};
  size_t expected_offset = AlignUp8(kPreambleSize + header_size);
  for (uint32_t c = 0; c < column_count; ++c) {
    const Attribute& attr = schema.at(c);
    const DirectoryEntry& entry = directory[c];
    const uint64_t expected_size = row_count * PayloadWidth(attr);
    expected_offset = AlignUp8(expected_offset);
    if (entry.offset != expected_offset) {
      return Malformed(context, "non-canonical payload offset for column \"" +
                                    attr.name + "\"");
    }
    if (entry.size != expected_size) {
      return Malformed(context, "payload size mismatch for column \"" +
                                    attr.name + "\"");
    }
    if (entry.offset > declared_size ||
        entry.size > declared_size - entry.offset) {
      return Truncated(context, "payload of column \"" + attr.name + "\"");
    }
    expected_offset = entry.offset + entry.size;
  }
  if (expected_offset != declared_size) {
    return Malformed(context, "declared file size does not match payloads");
  }

  // Payload verification: checksums first, then dictionary code ranges —
  // both are damage, not spec problems.
  for (uint32_t c = 0; c < column_count; ++c) {
    const DirectoryEntry& entry = directory[c];
    if (Fnv1a64(data + entry.offset, entry.size) != entry.checksum) {
      return Status::IoError(context +
                             ": payload checksum mismatch for column \"" +
                             schema.at(c).name + "\"");
    }
  }

  std::vector<ColumnTable::ColumnData> columns(column_count);
  size_t copied_bytes = 0;
  for (uint32_t c = 0; c < column_count; ++c) {
    const Attribute& attr = schema.at(c);
    const DirectoryEntry& entry = directory[c];
    const char* payload = data + entry.offset;
    ColumnTable::ColumnData& col = columns[c];
    if (attr.is_categorical()) {
      const bool aliasable =
          owner != nullptr &&
          reinterpret_cast<uintptr_t>(payload) % alignof(int32_t) == 0;
      if (aliasable) {
        col.codes = reinterpret_cast<const int32_t*>(payload);
      } else {
        col.owned_codes.resize(row_count);
        if (entry.size > 0) {
          std::memcpy(col.owned_codes.data(), payload, entry.size);
        }
        col.codes = col.owned_codes.data();
        copied_bytes += entry.size;
      }
      const int64_t universe = static_cast<int64_t>(attr.categories.size());
      for (uint64_t r = 0; r < row_count; ++r) {
        const int32_t code = col.codes[r];
        if (code < 0 || code >= universe) {
          return Status::IoError(
              context + ": dictionary code " + std::to_string(code) +
              " out of range for column \"" + attr.name + "\" (" +
              std::to_string(universe) + " categories)");
        }
      }
    } else {
      const bool aliasable =
          owner != nullptr &&
          reinterpret_cast<uintptr_t>(payload) % alignof(double) == 0;
      if (aliasable) {
        col.numeric = reinterpret_cast<const double*>(payload);
      } else {
        col.owned_numeric.resize(row_count);
        if (entry.size > 0) {
          std::memcpy(col.owned_numeric.data(), payload, entry.size);
        }
        col.numeric = col.owned_numeric.data();
        copied_bytes += entry.size;
      }
      // A nan or inf cell would flow into centroids and EMD ranks; no
      // release can be built from it, so it is rejected like damage.
      for (uint64_t r = 0; r < row_count; ++r) {
        if (!std::isfinite(col.numeric[r])) {
          return Status::IoError(context + ": non-finite value in row " +
                                 std::to_string(r) + " of column \"" +
                                 attr.name + "\"");
        }
      }
    }
  }

  const size_t mapped_bytes = owner != nullptr ? size : 0;
  return ColumnTable::Make(std::move(schema), row_count, std::move(columns),
                           std::move(owner), mapped_bytes, copied_bytes);
}

Result<ColumnTable> ReadTcmb(const std::string& path) {
  Result<std::shared_ptr<const MappedFile>> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  const std::shared_ptr<const MappedFile>& file = *mapped;
  return ParseTcmb(file->data(), file->size(), file, path);
}

}  // namespace tcm
