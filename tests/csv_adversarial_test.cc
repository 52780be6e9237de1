// Adversarial and fuzz tests for the CSV layer. The contract under
// test: the in-memory parser (ParseCsvString / ReadCsv) and the
// streaming parser (StreamingCsvReader) share one scanner, so EVERY
// input — well-formed, malformed, or random bytes — gets the identical
// verdict from both paths, at every feed-chunk size.

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/csv.h"
#include "data/csv_stream.h"

namespace tcm {
namespace {

Schema TwoNumericColumns() {
  return Schema({Attribute{"a", AttributeType::kNumeric,
                           AttributeRole::kQuasiIdentifier, {}},
                 Attribute{"b", AttributeType::kNumeric,
                           AttributeRole::kConfidential, {}}});
}

Schema MixedColumns() {
  return Schema({Attribute{"num", AttributeType::kNumeric,
                           AttributeRole::kQuasiIdentifier, {}},
                 Attribute{"cat", AttributeType::kNominal,
                           AttributeRole::kConfidential,
                           {"red", "green", "blue", "with,comma",
                            "with\"quote", "with\nnewline"}}});
}

// Streams `text` through StreamingCsvReader with the given feed-chunk
// size, draining in small row batches.
Result<Dataset> ParseStreamed(const std::string& text, const Schema& schema,
                              size_t buffer_bytes) {
  StreamingCsvOptions options;
  options.buffer_bytes = buffer_bytes;
  auto reader = StreamingCsvReader::FromStream(
      std::make_unique<std::istringstream>(text), schema, options);
  TCM_RETURN_IF_ERROR(reader.status());
  Dataset out((*reader)->schema());
  while (true) {
    TCM_ASSIGN_OR_RETURN(size_t got, (*reader)->ReadInto(&out, 3));
    if (got == 0) break;
  }
  return out;
}

// The identical-verdict oracle: parse `text` with the in-memory path
// and the streaming path at several chunk sizes; all runs must agree on
// success, error message, and parsed rows. Returns the in-memory result
// for further assertions.
Result<Dataset> ParseBothWays(const std::string& text, const Schema& schema) {
  Result<Dataset> in_memory = ParseCsvString(text, schema);
  for (size_t buffer_bytes : {1u, 2u, 3u, 7u, 64u, 65536u}) {
    Result<Dataset> streamed = ParseStreamed(text, schema, buffer_bytes);
    EXPECT_EQ(in_memory.ok(), streamed.ok())
        << "verdict differs at chunk size " << buffer_bytes << " for input:\n"
        << text;
    if (in_memory.ok() && streamed.ok()) {
      EXPECT_TRUE(*in_memory == *streamed)
          << "parsed rows differ at chunk size " << buffer_bytes
          << " for input:\n"
          << text;
    } else if (!in_memory.ok() && !streamed.ok()) {
      EXPECT_EQ(in_memory.status().message(), streamed.status().message())
          << "error message differs at chunk size " << buffer_bytes;
    }
  }
  return in_memory;
}

// ------------------------------------------------------ well-formed CSV

TEST(CsvAdversarialTest, PlainRowsParse) {
  auto result = ParseBothWays("a,b\n1,2\n3.5,-4e2\n", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 2u);
  EXPECT_DOUBLE_EQ(result->cell(1, 1).numeric(), -400.0);
}

TEST(CsvAdversarialTest, CrlfLineEndings) {
  auto result = ParseBothWays("a,b\r\n1,2\r\n3,4\r\n", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 2u);
}

TEST(CsvAdversarialTest, MissingFinalNewline) {
  auto result = ParseBothWays("a,b\n1,2", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 1u);
}

TEST(CsvAdversarialTest, BlankLinesAreSkipped) {
  auto result =
      ParseBothWays("a,b\n\n1,2\n   \n\r\n3,4\n", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 2u);
}

TEST(CsvAdversarialTest, WhitespaceAroundFieldsIsStripped) {
  auto result = ParseBothWays("a,b\n  1 ,\t2 \n", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->cell(0, 0).numeric(), 1.0);
  EXPECT_DOUBLE_EQ(result->cell(0, 1).numeric(), 2.0);
}

TEST(CsvAdversarialTest, QuotedFieldsWithEmbeddedDelimiters) {
  auto result =
      ParseBothWays("num,cat\n1,\"with,comma\"\n2,blue\n", MixedColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 2u);
  EXPECT_EQ(result->cell(0, 1).category(), 3);
}

TEST(CsvAdversarialTest, QuotedFieldsWithEmbeddedNewlines) {
  auto result = ParseBothWays("num,cat\n1,\"with\nnewline\"\n2,red\n",
                              MixedColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 2u);
  EXPECT_EQ(result->cell(0, 1).category(), 5);
}

TEST(CsvAdversarialTest, EscapedQuotesInsideQuotedField) {
  auto result = ParseBothWays("num,cat\n1,\"with\"\"quote\"\n",
                              MixedColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cell(0, 1).category(), 4);
}

TEST(CsvAdversarialTest, QuotedNumericFieldsParse) {
  auto result = ParseBothWays("a,b\n\"1\",\"2.5\"\n", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->cell(0, 1).numeric(), 2.5);
}

TEST(CsvAdversarialTest, QuotedHeaderMatchesSchema) {
  auto result = ParseBothWays("\"a\",b\n1,2\n", TwoNumericColumns());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRecords(), 1u);
}

TEST(CsvAdversarialTest, EmptyQuotedAndUnquotedFieldsAgree) {
  // Empty fields fail numeric parsing — identically on both paths.
  auto result = ParseBothWays("a,b\n1,\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
  auto quoted = ParseBothWays("a,b\n1,\"\"\n", TwoNumericColumns());
  EXPECT_FALSE(quoted.ok());
}

TEST(CsvAdversarialTest, HugeFieldSpanningManyChunks) {
  // A single ~256 KiB quoted field crosses every buffer size used by
  // ParseBothWays.
  std::string huge(256 * 1024, 'x');
  Schema schema({Attribute{"num", AttributeType::kNumeric,
                           AttributeRole::kQuasiIdentifier, {}},
                 Attribute{"cat", AttributeType::kNominal,
                           AttributeRole::kConfidential,
                           {huge}}});
  std::string text = "num,cat\n1,\"" + huge + "\"\n";
  auto result = ParseBothWays(text, schema);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cell(0, 1).category(), 0);
}

TEST(CsvAdversarialTest, LoneCarriageReturnInsideFieldIsData) {
  // "1\r5" strips to "1\r5" (inner CR is not edge whitespace): not a
  // number, so both paths must reject it identically.
  auto result = ParseBothWays("a,b\n1\r5,2\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
}

// ------------------------------------------------- scanner chunk edges

// Scans `text` delivered by the byte source in two pieces split at
// `split`, so the second refill lands at that byte. Returns the records,
// each with its start line, and the error message ("" when none).
std::vector<std::string> ScanSplit(const std::string& text, size_t split,
                                   std::string* error) {
  std::string_view pieces[2] = {std::string_view(text).substr(0, split),
                                std::string_view(text).substr(split)};
  size_t piece = 0;
  CsvScanner scanner(
      [&](char* dst, size_t size) -> Result<size_t> {
        while (piece < 2 && pieces[piece].empty()) ++piece;
        if (piece == 2) return size_t{0};
        const size_t n = std::min(size, pieces[piece].size());
        pieces[piece].copy(dst, n);
        pieces[piece].remove_prefix(n);
        if (pieces[piece].empty()) ++piece;
        return n;
      },
      text.size() + 1);
  std::vector<std::string> out;
  std::vector<std::string_view> fields;
  error->clear();
  while (true) {
    Result<bool> got = scanner.Next(&fields);
    if (!got.ok()) {
      *error = got.status().message();
      break;
    }
    if (!*got) break;
    std::string record = std::to_string(scanner.record_line()) + ":";
    for (std::string_view field : fields) {
      record += "[" + std::string(field) + "]";
    }
    out.push_back(record);
  }
  return out;
}

// A scan resumed after a refill must yield exactly the records of an
// unbroken scan wherever the boundary falls: inside a run, and right
// before a quote or CR whose meaning depends on the byte after it.
TEST(CsvAdversarialTest, ChunkBoundaryInsideAndAfterUnquotedRuns) {
  const std::vector<std::string> inputs = {
      "a,b\n123456789.25,987654321\n42,7",   // runs cut anywhere
      "a,b\n1234\"5,6\n",                   // quote right after a run
      "a,b\n1234\r\n5678,9\r\n",          // CRLF right after a run
      "a,b\n12\r34,5\n",                    // lone CR inside a run
      "a,b\n12345\r",                        // CR at end of input
      "a,b\n\"q\"x,1\n",                   // garbage after a quote
      "a,b\n\"multi\nline\",22\n333,4444\n",
      "a,b\n\"1\"\"2\",\"3\"\r\n\"4\"\r",   // escape, CRLF and CR
  };
  for (const std::string& text : inputs) {
    std::string expected_error;
    const std::vector<std::string> expected =
        ScanSplit(text, text.size(), &expected_error);
    for (size_t split = 0; split <= text.size(); ++split) {
      std::string error;
      EXPECT_EQ(ScanSplit(text, split, &error), expected)
          << "split " << split << " of:\n" << text;
      EXPECT_EQ(error, expected_error) << "split " << split;
    }
    // And the readers agree at every chunk size, as for any input.
    ParseBothWays(text, TwoNumericColumns());
  }
}

// ------------------------------------------------------- malformed CSV

TEST(CsvAdversarialTest, RaggedRowsAreRejected) {
  auto fewer = ParseBothWays("a,b\n1\n", TwoNumericColumns());
  EXPECT_FALSE(fewer.ok());
  auto more = ParseBothWays("a,b\n1,2,3\n", TwoNumericColumns());
  EXPECT_FALSE(more.ok());
}

TEST(CsvAdversarialTest, UnterminatedQuoteIsRejected) {
  auto result = ParseBothWays("a,b\n1,\"unclosed\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
}

TEST(CsvAdversarialTest, StrayQuoteInsideUnquotedFieldIsRejected) {
  auto result = ParseBothWays("a,b\n1,2\"3\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
}

TEST(CsvAdversarialTest, GarbageAfterClosingQuoteIsRejected) {
  auto result = ParseBothWays("a,b\n\"1\"x,2\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
}

TEST(CsvAdversarialTest, UnknownCategoryIsRejected) {
  auto result = ParseBothWays("num,cat\n1,magenta\n", MixedColumns());
  EXPECT_FALSE(result.ok());
}

TEST(CsvAdversarialTest, NonNumericFieldIsRejected) {
  auto result = ParseBothWays("a,b\n1,zebra\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
}

// from_chars accepts nan and inf spellings, but no release can be built
// from them: they are an input error naming the line and attribute.
TEST(CsvAdversarialTest, NonFiniteNumbersAreRejected) {
  for (const char* cell : {"nan", "NaN", "inf", "-inf", "infinity"}) {
    auto result = ParseBothWays(std::string("a,b\n1,2\n3, ") + cell + "\n",
                                TwoNumericColumns());
    ASSERT_FALSE(result.ok()) << cell;
    EXPECT_EQ(result.status().code(), StatusCode::kIoError) << cell;
    EXPECT_EQ(result.status().message(),
              std::string("line 3: non-finite value '") + cell +
                  "' for attribute 'b'");
  }
}

TEST(CsvAdversarialTest, HeaderMismatchesAreRejected) {
  EXPECT_FALSE(ParseBothWays("a,wrong\n1,2\n", TwoNumericColumns()).ok());
  EXPECT_FALSE(ParseBothWays("a\n1\n", TwoNumericColumns()).ok());
  EXPECT_FALSE(ParseBothWays("a,b,c\n1,2,3\n", TwoNumericColumns()).ok());
  EXPECT_FALSE(ParseBothWays("", TwoNumericColumns()).ok());
}

TEST(CsvAdversarialTest, ErrorsAfterValidRowsStillRejectTheWholeParse) {
  auto result =
      ParseBothWays("a,b\n1,2\n3,4\n5\n", TwoNumericColumns());
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 4"), std::string::npos)
      << result.status().message();
}

TEST(CsvAdversarialTest, ErrorLineNumbersCountPhysicalLines) {
  // The quoted field on line 2 spans two physical lines, so the ragged
  // row after it is line 4.
  auto result = ParseBothWays("num,cat\n1,\"with\nnewline\"\nbad\n",
                              MixedColumns());
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 4"), std::string::npos)
      << result.status().message();
}

// --------------------------------------------------------------- fuzz

// Random byte soup over a CSV-hostile alphabet: both parsers must agree
// on every input at every chunk size (and crash on none).
TEST(CsvAdversarialTest, FuzzedInputsGetIdenticalVerdicts) {
  const char alphabet[] = {',', '"', '\n', '\r', '1', '2', '.',  '-',
                           ' ', 'a', '\t', '"',  ',', '\n', 'e', '0'};
  Rng rng(20160713);
  size_t accepted = 0;
  for (int round = 0; round < 300; ++round) {
    std::string text = "a,b\n";  // valid header, hostile body
    size_t length = 1 + rng.NextBounded(120);
    for (size_t i = 0; i < length; ++i) {
      text.push_back(alphabet[rng.NextBounded(sizeof(alphabet))]);
    }
    auto result = ParseBothWays(text, TwoNumericColumns());
    if (result.ok()) ++accepted;
  }
  // The oracle is the agreement; still, some inputs should parse.
  EXPECT_GT(accepted, 0u);
}

// Structured fuzz: generate VALID quoted CSV from random field content,
// write it, and require both parsers to recover the exact fields.
TEST(CsvAdversarialTest, RoundTripFuzzOverQuotedContent) {
  Rng rng(424242);
  const char content_alphabet[] = {'x', 'y', ',', '"', '\n', ' ', '9'};
  for (int round = 0; round < 120; ++round) {
    // Two categorical columns whose labels are random byte strings.
    std::vector<std::string> labels;
    for (int i = 0; i < 4; ++i) {
      std::string label;
      size_t length = 1 + rng.NextBounded(12);
      for (size_t j = 0; j < length; ++j) {
        label.push_back(content_alphabet[
            rng.NextBounded(sizeof(content_alphabet))]);
      }
      // Labels are matched after whitespace stripping; keep them
      // strip-stable and distinct.
      label = "L" + std::to_string(i) + label + "E";
      labels.push_back(label);
    }
    Schema schema({Attribute{"num", AttributeType::kNumeric,
                             AttributeRole::kQuasiIdentifier, {}},
                   Attribute{"cat", AttributeType::kNominal,
                             AttributeRole::kConfidential, labels}});
    Dataset data(schema);
    for (int row = 0; row < 5; ++row) {
      ASSERT_TRUE(
          data.Append({Value::Numeric(static_cast<double>(row)),
                       Value::Categorical(static_cast<int32_t>(
                           rng.NextBounded(labels.size())))})
              .ok());
    }
    std::string text = WriteCsvString(data);
    auto result = ParseBothWays(text, schema);
    ASSERT_TRUE(result.ok()) << "round " << round << " input:\n" << text;
    EXPECT_TRUE(*result == data) << "round " << round;
  }
}

}  // namespace
}  // namespace tcm
