// Tests for the columnar store (src/colstore/): ColumnTable round trips,
// .tcmb serialization/zero-copy reads, the CSV converter, and — the
// format's core guarantee — that
// a JobSpec run over a converted .tcmb releases byte-identical output to
// the same run over the source CSV, in-memory and streaming, at 1 and 4
// threads. The mmap-lifetime cases run under the asan preset: every
// span/label handed out must stay valid while a keep-alive copy of the
// owner exists, and an out-of-range dictionary code must abort.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "colstore/column_table.h"
#include "colstore/columnar_source.h"
#include "colstore/convert.h"
#include "colstore/tcmb.h"
#include "data/csv.h"
#include "tcm/api.h"

namespace tcm {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// A small mixed-type dataset: numeric QI, nominal QI, ordinal
// confidential — every column kind the format stores.
Dataset MixedDataset() {
  Schema schema({
      Attribute{"age", AttributeType::kNumeric,
                AttributeRole::kQuasiIdentifier, {}},
      Attribute{"city", AttributeType::kNominal,
                AttributeRole::kQuasiIdentifier, {"tokyo", "oslo", "lima"}},
      Attribute{"grade", AttributeType::kOrdinal,
                AttributeRole::kConfidential, {"low", "mid", "high"}},
  });
  Dataset data(schema);
  auto add = [&data](double age, int32_t city, int32_t grade) {
    ASSERT_TRUE(data.Append({Value::Numeric(age), Value::Categorical(city),
                             Value::Categorical(grade)})
                    .ok());
  };
  add(30, 0, 0);
  add(30, 0, 1);
  add(30, 0, 0);
  add(41.5, 1, 2);
  add(41.5, 1, 1);
  add(41.5, 1, 2);
  add(-7.25, 2, 0);
  add(-7.25, 2, 2);
  return data;
}

void ExpectDatasetsEqual(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.NumRecords(), b.NumRecords());
  ASSERT_EQ(a.schema().size(), b.schema().size());
  for (size_t c = 0; c < a.schema().size(); ++c) {
    EXPECT_EQ(a.schema().at(c).name, b.schema().at(c).name);
    EXPECT_EQ(a.schema().at(c).type, b.schema().at(c).type);
    EXPECT_EQ(a.schema().at(c).role, b.schema().at(c).role);
    EXPECT_EQ(a.schema().at(c).categories, b.schema().at(c).categories);
  }
  for (size_t r = 0; r < a.NumRecords(); ++r) {
    for (size_t c = 0; c < a.schema().size(); ++c) {
      const Value& va = a.cell(r, c);
      const Value& vb = b.cell(r, c);
      ASSERT_EQ(va.kind(), vb.kind()) << "row " << r << " col " << c;
      if (va.kind() == Value::Kind::kNumeric) {
        EXPECT_EQ(va.AsDouble(), vb.AsDouble())
            << "row " << r << " col " << c;
      } else {
        EXPECT_EQ(va.category(), vb.category())
            << "row " << r << " col " << c;
      }
    }
  }
}

// ---------------------------------------------------------- ColumnTable

TEST(ColumnTableTest, DatasetRoundTripPreservesEveryCell) {
  Dataset data = MixedDataset();
  ColumnTable table = ColumnTable::FromDataset(data);
  EXPECT_EQ(table.num_rows(), data.NumRecords());
  EXPECT_EQ(table.num_columns(), data.schema().size());
  EXPECT_EQ(table.mapped_bytes(), 0u);
  EXPECT_GT(table.copied_bytes(), 0u);
  ExpectDatasetsEqual(table.ToDataset(), data);
}

TEST(ColumnTableTest, TypedViewsAndLabels) {
  ColumnTable table = ColumnTable::FromDataset(MixedDataset());
  std::span<const double> age = table.NumericColumn(0);
  ASSERT_EQ(age.size(), 8u);
  EXPECT_EQ(age[3], 41.5);
  EXPECT_EQ(age[6], -7.25);
  std::span<const int32_t> city = table.CodeColumn(1);
  ASSERT_EQ(city.size(), 8u);
  EXPECT_EQ(city[0], 0);
  EXPECT_EQ(city[7], 2);
  EXPECT_EQ(table.schema().at(1).categories[0], "tokyo");
  EXPECT_EQ(table.schema().at(2).categories[2], "high");
}

TEST(ColumnTableTest, AppendRowsMaterializesTheRequestedSlice) {
  Dataset data = MixedDataset();
  ColumnTable table = ColumnTable::FromDataset(data);
  Dataset out(data.schema());
  auto cells = table.AppendRows(&out, 2, 3);
  ASSERT_TRUE(cells.ok());
  EXPECT_EQ(*cells, 3u * 3u);
  ASSERT_EQ(out.NumRecords(), 3u);
  EXPECT_EQ(out.cell(0, 0).AsDouble(), 30.0);
  EXPECT_EQ(out.cell(1, 1).category(), 1);
}

// ----------------------------------------------------------------- .tcmb

TEST(TcmbTest, SerializeParseIsTheIdentity) {
  Dataset data = MixedDataset();
  ColumnTable table = ColumnTable::FromDataset(data);
  auto image = SerializeTcmb(table);
  ASSERT_TRUE(image.ok());
  auto parsed = ParseTcmb(image->data(), image->size(), nullptr, "test");
  ASSERT_TRUE(parsed.ok());
  ExpectDatasetsEqual(parsed->ToDataset(), data);
  // Deterministic bytes: re-serializing the parsed table reproduces the
  // image exactly.
  auto again = SerializeTcmb(*parsed);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*image, *again);
}

TEST(TcmbTest, WriteReadIsZeroCopy) {
  Dataset data = MixedDataset();
  ColumnTable table = ColumnTable::FromDataset(data);
  const std::string path = TempPath("roundtrip.tcmb");
  ASSERT_TRUE(WriteTcmb(table, path).ok());

  auto mapped = ReadTcmb(path);
  ASSERT_TRUE(mapped.ok());
  ExpectDatasetsEqual(mapped->ToDataset(), data);
  // The canonical writer 8-aligns every payload, so a mapped read serves
  // all column bytes straight from the file: nothing copied.
  EXPECT_EQ(mapped->mapped_bytes(), std::filesystem::file_size(path));
  EXPECT_EQ(mapped->copied_bytes(), 0u);
  EXPECT_NE(mapped->owner(), nullptr);
}

TEST(TcmbTest, ZeroRowTableSurvivesTheRoundTrip) {
  Dataset empty(MixedDataset().schema());
  ColumnTable table = ColumnTable::FromDataset(empty);
  const std::string path = TempPath("empty.tcmb");
  ASSERT_TRUE(WriteTcmb(table, path).ok());
  auto mapped = ReadTcmb(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped->num_rows(), 0u);
  EXPECT_EQ(mapped->schema().size(), 3u);
}

TEST(TcmbTest, MissingFileIsIoError) {
  auto missing = ReadTcmb(TempPath("definitely_absent.tcmb"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

// ------------------------------------------------------- mmap lifetime

TEST(TcmbTest, ViewsOutliveTheTableWhileOwnerIsHeld) {
  const std::string path = TempPath("lifetime.tcmb");
  ASSERT_TRUE(WriteTcmb(ColumnTable::FromDataset(MixedDataset()), path).ok());

  std::optional<ColumnTable> table;
  {
    auto mapped = ReadTcmb(path);
    ASSERT_TRUE(mapped.ok());
    table.emplace(std::move(*mapped));
  }
  // Take views, keep the mapping alive, destroy the table.
  std::span<const double> age = table->NumericColumn(0);
  std::span<const int32_t> city = table->CodeColumn(1);
  std::shared_ptr<const void> keep_alive = table->owner();
  ASSERT_NE(keep_alive, nullptr);
  table.reset();
  // Under ASan this dereferences freed/unmapped memory unless keep_alive
  // really pins the mapping.
  EXPECT_EQ(age[3], 41.5);
  EXPECT_EQ(city[7], 2);
}

// -------------------------------------------------------- CSV converter

TEST(ConvertTest, GoldenCsvConvertsAndBridgesIdentically) {
  const std::string csv = std::string(TCM_GOLDEN_DIR) + "/input_mcd_120.csv";
  auto table = ConvertCsvToColumnar(csv);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 120u);

  auto rows = ReadCsv(csv, table->schema());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  Dataset bridged = table->ToDataset();
  ASSERT_EQ(bridged.NumRecords(), rows->NumRecords());
  for (size_t r = 0; r < bridged.NumRecords(); ++r) {
    for (size_t c = 0; c < bridged.schema().size(); ++c) {
      EXPECT_EQ(bridged.cell(r, c).AsDouble(), rows->cell(r, c).AsDouble());
    }
  }
}

TEST(ConvertTest, MixedColumnsBecomeDictionaries) {
  const std::string csv = TempPath("mixed.csv");
  {
    std::ofstream out(csv);
    out << "id,color\n1,red\n2,blue\n3,red\n4, red \n";
  }
  auto table = ConvertCsvToColumnar(csv);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_rows(), 4u);
  EXPECT_FALSE(table->schema().at(0).is_categorical());
  ASSERT_TRUE(table->schema().at(1).is_categorical());
  // First-appearance dictionary order; whitespace stripped like the CSV
  // readers do, so " red " interns to the same code as "red".
  EXPECT_EQ(table->schema().at(1).categories,
            (std::vector<std::string>{"red", "blue"}));
  std::span<const int32_t> codes = table->CodeColumn(1);
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 1);
  EXPECT_EQ(codes[3], 0);
}

TEST(ConvertTest, ColumnTypesSettleOverTheWholeFile) {
  // "b" stores numbers (one of them inf) before its first label, so it is
  // interned from its first row on; "c" is nominal from its first row.
  const std::string csv = TempPath("late_label.csv");
  {
    std::ofstream out(csv);
    out << "a,b,c\n1,2,x\n2,inf,3\n3, abc ,y\n4,2,x\n";
  }
  auto table = ConvertCsvToColumnar(csv);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->num_rows(), 4u);
  std::span<const double> a = table->NumericColumn(0);
  EXPECT_EQ(std::vector<double>(a.begin(), a.end()),
            (std::vector<double>{1, 2, 3, 4}));
  EXPECT_EQ(table->schema().at(1).categories,
            (std::vector<std::string>{"2", "inf", "abc"}));
  std::span<const int32_t> b = table->CodeColumn(1);
  EXPECT_EQ(std::vector<int32_t>(b.begin(), b.end()),
            (std::vector<int32_t>{0, 1, 2, 0}));
  EXPECT_EQ(table->schema().at(2).categories,
            (std::vector<std::string>{"x", "3", "y"}));

  // A non-finite number is an error only in a column that ends numeric,
  // and the error names the first such cell in row order.
  const std::string non_finite = TempPath("non_finite.csv");
  {
    std::ofstream out(non_finite);
    out << "a,b,c\n1,2,x\n2,nan,-inf\ninf,3,z\n";
  }
  auto failed = ConvertCsvToColumnar(non_finite);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_NE(failed.status().message().find("line 3: non-finite value "
                                           "\"nan\" in column \"b\""),
            std::string::npos)
      << failed.status().ToString();
}

TEST(ConvertTest, FieldCountMismatchIsIoError) {
  const std::string csv = TempPath("ragged.csv");
  {
    std::ofstream out(csv);
    out << "a,b\n1,2\n3\n";
  }
  auto table = ConvertCsvToColumnar(csv);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
}

// ------------------------------------------------------- ColumnarSource

TEST(ColumnarSourceTest, StreamsTheTableInChunks) {
  const std::string path = TempPath("source.tcmb");
  Dataset data = MixedDataset();
  ASSERT_TRUE(WriteTcmb(ColumnTable::FromDataset(data), path).ok());
  auto source = ColumnarSource::Open(path);
  ASSERT_TRUE(source.ok());

  Dataset out((*source)->schema());
  size_t total = 0;
  for (;;) {
    auto n = (*source)->ReadInto(&out, 3);
    ASSERT_TRUE(n.ok());
    total += *n;
    if (*n < 3) break;
  }
  EXPECT_EQ(total, data.NumRecords());
  ExpectDatasetsEqual(out, data);
  EXPECT_GT((*source)->mapped_bytes(), 0u);
}

// -------------------------------------- CSV / .tcmb release equivalence

struct FormatRun {
  std::string release;
  RunReport report;
};

FormatRun RunGolden(const std::string& input, InputFormat format,
                    ExecutionMode mode, size_t threads,
                    const std::string& out_name) {
  JobSpec spec;
  spec.input.kind = InputKind::kCsvPath;
  spec.input.path = input;
  spec.input.format = format;
  spec.roles.quasi_identifiers = {"TAXINC", "POTHVAL"};
  spec.roles.confidential = "FEDTAX";
  spec.algorithm.name = "tclose_first";
  spec.algorithm.k = 5;
  spec.algorithm.t = 0.3;
  spec.algorithm.seed = 9;
  spec.execution.mode = mode;
  spec.execution.threads = threads;
  spec.execution.shard_size = 64;
  spec.execution.max_resident_rows = 4096;
  spec.output.release_path = TempPath(out_name);
  auto report = RunJob(spec);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  FormatRun run;
  run.release = ReadFileOrDie(spec.output.release_path);
  if (report.ok()) run.report = std::move(*report);
  return run;
}

TEST(FormatEquivalenceTest, CsvAndTcmbReleaseByteIdenticalEverywhere) {
  const std::string csv = std::string(TCM_GOLDEN_DIR) + "/input_mcd_120.csv";
  const std::string tcmb = TempPath("input_mcd_120.tcmb");
  ASSERT_TRUE(ConvertCsvToTcmb(csv, tcmb).ok());
  const std::string golden = ReadFileOrDie(
      std::string(TCM_GOLDEN_DIR) + "/release_tclose_first_k5_t30.csv");

  int case_index = 0;
  for (ExecutionMode mode :
       {ExecutionMode::kInMemory, ExecutionMode::kStreaming}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const std::string tag = std::to_string(case_index++);
      FormatRun from_csv = RunGolden(csv, InputFormat::kCsv, mode, threads,
                                     "eq_csv_" + tag + ".csv");
      FormatRun from_tcmb = RunGolden(tcmb, InputFormat::kTcmb, mode,
                                      threads, "eq_tcmb_" + tag + ".csv");
      EXPECT_EQ(from_csv.release, golden)
          << "csv release drifted (mode " << ExecutionModeName(mode)
          << ", threads " << threads << ")";
      EXPECT_EQ(from_tcmb.release, golden)
          << ".tcmb release differs from the golden (mode "
          << ExecutionModeName(mode) << ", threads " << threads << ")";

      // Provenance and the zero-copy split land in the report.
      EXPECT_EQ(from_csv.report.input_format, "csv");
      EXPECT_EQ(from_tcmb.report.input_format, "tcmb");
      EXPECT_EQ(from_csv.report.input_mapped_bytes, 0u);
      EXPECT_GT(from_csv.report.input_copied_bytes, 0u);
      EXPECT_EQ(from_tcmb.report.input_mapped_bytes,
                std::filesystem::file_size(tcmb));
      EXPECT_GT(from_tcmb.report.input_copied_bytes, 0u);
    }
  }
}

TEST(FormatEquivalenceTest, StreamedReportRecordsTheShardPlan) {
  const std::string csv = std::string(TCM_GOLDEN_DIR) + "/input_mcd_120.csv";
  FormatRun run = RunGolden(csv, InputFormat::kCsv,
                            ExecutionMode::kStreaming, 2, "shard_plan.csv");
  ASSERT_FALSE(run.report.windows.empty());
  for (const StreamingWindowSummary& window : run.report.windows) {
    EXPECT_EQ(window.shard_size, 64u);
    EXPECT_EQ(window.threads, 2u);
    EXPECT_GE(window.num_shards, 1u);
  }
}

TEST(FormatEquivalenceTest, TcmbInputWithoutRolesIsInvalidSpec) {
  const std::string csv = std::string(TCM_GOLDEN_DIR) + "/input_mcd_120.csv";
  const std::string tcmb = TempPath("no_roles.tcmb");
  ASSERT_TRUE(ConvertCsvToTcmb(csv, tcmb).ok());
  JobSpec spec;
  spec.input.kind = InputKind::kCsvPath;
  spec.input.path = tcmb;
  spec.input.format = InputFormat::kTcmb;
  spec.output.release_path = TempPath("never.csv");
  auto report = RunJob(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidSpec);
}

}  // namespace
}  // namespace tcm
