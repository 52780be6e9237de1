// Robustness wall for the .tcmb binary reader (colstore/tcmb.h),
// mirroring json_fuzz_test.cc: a deterministic corruption corpus over a
// genuine serialized image — truncation at every byte, bit flips across
// the preamble/header/payloads, and structurally-targeted damage
// (version bumps, checksum edits, out-of-range dictionary codes). The
// parser's contract under attack is narrow and absolute: return a
// structured Status, never crash, hang, or build a table from bytes it
// cannot vouch for. IoError means damage (truncation, checksums, bad
// codes); InvalidSpec means intact-but-not-a-usable-v1-file.

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "colstore/column_table.h"
#include "colstore/tcmb.h"
#include "data/attribute.h"
#include "data/dataset.h"
#include "data/value.h"

namespace tcm {
namespace {

// A seed table covering both column kinds, large enough that payload
// sections span several 8-byte lines.
ColumnTable SeedTable() {
  Schema schema({
      Attribute{"x", AttributeType::kNumeric,
                AttributeRole::kQuasiIdentifier, {}},
      Attribute{"c", AttributeType::kNominal, AttributeRole::kConfidential,
                {"a", "b", "c", "d"}},
  });
  Dataset data(schema);
  for (int i = 0; i < 57; ++i) {
    EXPECT_TRUE(data.Append({Value::Numeric(i * 0.5),
                             Value::Categorical(i % 4)})
                    .ok());
  }
  return ColumnTable::FromDataset(data);
}

std::string SeedImage() {
  auto image = SerializeTcmb(SeedTable());
  EXPECT_TRUE(image.ok());
  return image.ok() ? *image : std::string();
}

// The property under fuzz: parsing returns a Result; failures carry a
// non-empty message and the documented code family.
void CheckParser(const std::string& bytes) {
  auto parsed = ParseTcmb(bytes.data(), bytes.size(), nullptr, "fuzz");
  if (!parsed.ok()) {
    EXPECT_FALSE(parsed.status().message().empty());
    EXPECT_TRUE(parsed.status().code() == StatusCode::kIoError ||
                parsed.status().code() == StatusCode::kInvalidSpec)
        << parsed.status().ToString();
    return;
  }
  // Anything accepted must re-serialize to a parseable image of the same
  // shape (the reader has verified checksums, so acceptance is a strong
  // claim).
  auto again = SerializeTcmb(*parsed);
  ASSERT_TRUE(again.ok());
  auto reparsed = ParseTcmb(again->data(), again->size(), nullptr, "fuzz2");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(parsed->num_rows(), reparsed->num_rows());
  EXPECT_EQ(parsed->num_columns(), reparsed->num_columns());
}

TEST(TcmbFuzzTest, SeedImageParses) {
  const std::string image = SeedImage();
  ASSERT_FALSE(image.empty());
  auto parsed = ParseTcmb(image.data(), image.size(), nullptr, "seed");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_rows(), 57u);
}

TEST(TcmbFuzzTest, TruncationLadderIsTotal) {
  // Every strict prefix must fail cleanly — and specifically as
  // IoError once the magic is intact (a cut-off file is damage, not a
  // different format). Prefixes shorter than the magic, or with a
  // damaged header blob whose checksum no longer matches, also stay in
  // the contract.
  const std::string image = SeedImage();
  ASSERT_FALSE(image.empty());
  for (size_t cut = 0; cut < image.size(); ++cut) {
    const std::string prefix = image.substr(0, cut);
    auto parsed = ParseTcmb(prefix.data(), prefix.size(), nullptr, "trunc");
    ASSERT_FALSE(parsed.ok()) << "accepted a " << cut << "-byte prefix of a "
                              << image.size() << "-byte file";
    EXPECT_FALSE(parsed.status().message().empty());
    if (cut >= 32) {
      // Magic, version and preamble intact: truncation must read as
      // damage, never as a valid smaller file.
      EXPECT_EQ(parsed.status().code(), StatusCode::kIoError)
          << "cut=" << cut << ": " << parsed.status().ToString();
    }
  }
}

TEST(TcmbFuzzTest, EveryBitFlipFailsCleanlyOrRoundTrips) {
  // Exhaustive single-bit flips over the preamble and header, sampled
  // flips over the payload region: no crash, and any accepted image
  // re-serializes.
  const std::string image = SeedImage();
  ASSERT_FALSE(image.empty());
  const size_t dense_region = std::min<size_t>(image.size(), 160);
  for (size_t byte = 0; byte < dense_region; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = image;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      CheckParser(mutated);
    }
  }
  std::mt19937 rng(0x7C3Bu);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = image;
    const size_t byte = std::uniform_int_distribution<size_t>(
        0, mutated.size() - 1)(rng);
    const int bit = std::uniform_int_distribution<int>(0, 7)(rng);
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
    CheckParser(mutated);
  }
}

TEST(TcmbFuzzTest, StackedMutationsNeverCrash) {
  const std::string image = SeedImage();
  ASSERT_FALSE(image.empty());
  std::mt19937 rng(0xBEEF5EEDu);
  for (int i = 0; i < 1500; ++i) {
    std::string mutated = image;
    const int edits = 1 + std::uniform_int_distribution<int>(0, 3)(rng);
    for (int e = 0; e < edits; ++e) {
      switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
        case 0:  // truncate
          mutated.resize(std::uniform_int_distribution<size_t>(
              0, mutated.size())(rng));
          break;
        case 1: {  // flip a byte
          if (mutated.empty()) break;
          const size_t pos = std::uniform_int_distribution<size_t>(
              0, mutated.size() - 1)(rng);
          mutated[pos] = static_cast<char>(
              std::uniform_int_distribution<int>(0, 255)(rng));
          break;
        }
        case 2:  // append garbage
          mutated.push_back(static_cast<char>(
              std::uniform_int_distribution<int>(0, 255)(rng)));
          break;
        default: {  // erase a span
          if (mutated.empty()) break;
          const size_t begin = std::uniform_int_distribution<size_t>(
              0, mutated.size() - 1)(rng);
          const size_t len = 1 + std::uniform_int_distribution<size_t>(
                                     0, 15)(rng);
          mutated.erase(begin, len);
          break;
        }
      }
    }
    CheckParser(mutated);
  }
}

// --------------------------------------------- targeted structural damage

std::string WithU32At(std::string image, size_t offset, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    image[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  return image;
}

TEST(TcmbFuzzTest, WrongMagicIsInvalidSpec) {
  std::string image = SeedImage();
  image[0] = 'X';
  auto parsed = ParseTcmb(image.data(), image.size(), nullptr, "magic");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidSpec);
}

TEST(TcmbFuzzTest, VersionMismatchIsInvalidSpec) {
  const std::string image = WithU32At(SeedImage(), 4, kTcmbFormatVersion + 1);
  auto parsed = ParseTcmb(image.data(), image.size(), nullptr, "version");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidSpec);
  EXPECT_NE(parsed.status().message().find("unsupported .tcmb format"),
            std::string::npos);
}

TEST(TcmbFuzzTest, HeaderChecksumMismatchIsIoError) {
  std::string image = SeedImage();
  image[16] = static_cast<char>(image[16] ^ 0x01);  // checksum field itself
  auto parsed = ParseTcmb(image.data(), image.size(), nullptr, "hsum");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
  EXPECT_NE(parsed.status().message().find("header checksum"),
            std::string::npos);
}

TEST(TcmbFuzzTest, PayloadCorruptionIsCaughtByChecksum) {
  // Flip one payload byte (past the header) without touching its
  // directory entry: the per-section checksum must catch it.
  std::string image = SeedImage();
  image[image.size() - 5] = static_cast<char>(image[image.size() - 5] ^ 0x40);
  auto parsed = ParseTcmb(image.data(), image.size(), nullptr, "psum");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
  EXPECT_NE(parsed.status().message().find("payload checksum"),
            std::string::npos);
}

TEST(TcmbFuzzTest, TrailingBytesAreInvalidSpec) {
  std::string image = SeedImage() + "extra";
  auto parsed = ParseTcmb(image.data(), image.size(), nullptr, "trail");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidSpec);
}

TEST(TcmbFuzzTest, OutOfRangeDictionaryCodeIsIoError) {
  // The writer trusts its table, so a table constructed with codes
  // beyond the dictionary serializes fine — and the reader must refuse
  // it with IoError, code range being a payload-integrity property.
  Schema schema({
      Attribute{"c", AttributeType::kNominal, AttributeRole::kConfidential,
                {"only", "two"}},
  });
  ColumnTable::ColumnData column;
  column.owned_codes = {0, 1, 7, 0};  // 7 is out of range
  column.codes = column.owned_codes.data();
  std::vector<ColumnTable::ColumnData> columns;
  columns.push_back(std::move(column));
  ColumnTable bad = ColumnTable::Make(schema, 4, std::move(columns),
                                      nullptr, 0, 4 * sizeof(int32_t));
  auto image = SerializeTcmb(bad);
  ASSERT_TRUE(image.ok());
  auto parsed = ParseTcmb(image->data(), image->size(), nullptr, "codes");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
  EXPECT_NE(parsed.status().message().find("dictionary code"),
            std::string::npos);

  // Negative codes are just as dead.
  ColumnTable::ColumnData negative;
  negative.owned_codes = {0, -1, 1, 0};
  negative.codes = negative.owned_codes.data();
  std::vector<ColumnTable::ColumnData> neg_columns;
  neg_columns.push_back(std::move(negative));
  ColumnTable neg = ColumnTable::Make(schema, 4, std::move(neg_columns),
                                      nullptr, 0, 4 * sizeof(int32_t));
  auto neg_image = SerializeTcmb(neg);
  ASSERT_TRUE(neg_image.ok());
  auto neg_parsed =
      ParseTcmb(neg_image->data(), neg_image->size(), nullptr, "negcodes");
  ASSERT_FALSE(neg_parsed.ok());
  EXPECT_EQ(neg_parsed.status().code(), StatusCode::kIoError);
}

TEST(TcmbFuzzTest, NonFiniteNumericCellIsIoError) {
  // Like out-of-range codes: the writer trusts its table, the reader
  // refuses a nan or inf cell, naming the column.
  Schema schema({
      Attribute{"x", AttributeType::kNumeric, AttributeRole::kQuasiIdentifier,
                {}},
  });
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Dataset data(schema);
    ASSERT_TRUE(data.Append({Value::Numeric(1.0)}).ok());
    ASSERT_TRUE(data.Append({Value::Numeric(bad)}).ok());
    auto image = SerializeTcmb(ColumnTable::FromDataset(data));
    ASSERT_TRUE(image.ok());
    auto parsed =
        ParseTcmb(image->data(), image->size(), nullptr, "nonfinite");
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
    EXPECT_NE(parsed.status().message().find("non-finite value in row 1 of "
                                             "column \"x\""),
              std::string::npos)
        << parsed.status().message();
  }
}

TEST(TcmbFuzzTest, GarbageAndEmptyInputsFailCleanly) {
  CheckParser("");
  CheckParser("TCMB");
  CheckParser(std::string(1 << 16, '\0'));
  std::mt19937 rng(0xD15EA5Eu);
  std::string garbage(1 << 16, '\0');
  for (char& c : garbage) {
    c = static_cast<char>(std::uniform_int_distribution<int>(0, 255)(rng));
  }
  CheckParser(garbage);
  // Garbage behind a genuine preamble prefix.
  const std::string image = SeedImage();
  CheckParser(image.substr(0, 32) + garbage);
}

}  // namespace
}  // namespace tcm
