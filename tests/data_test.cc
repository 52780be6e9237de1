#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "data/attribute.h"
#include "data/csv.h"
#include "data/csv_stream.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "data/stats.h"
#include "data/summary.h"
#include "data/value.h"
#include "distance/emd.h"
#include "microagg/aggregate.h"

// Counts every heap allocation of this binary, so tests can pin how many
// a data-layer operation makes (DatasetAllocationTest below). Both the
// throwing and the nothrow forms are replaced (std::stable_sort uses the
// latter), so every block the deletes below free came from malloc.
namespace {
std::atomic<size_t> g_heap_allocations{0};

void* CountedMalloc(std::size_t size) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
// GCC cannot see that the matching operator new above is malloc-based.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace tcm {
namespace {

// ----------------------------------------------------------------- Value

TEST(ValueTest, NumericRoundTrip) {
  Value v = Value::Numeric(3.25);
  EXPECT_TRUE(v.is_numeric());
  EXPECT_FALSE(v.is_categorical());
  EXPECT_DOUBLE_EQ(v.numeric(), 3.25);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.25);
}

TEST(ValueTest, CategoricalRoundTrip) {
  Value v = Value::Categorical(7);
  EXPECT_TRUE(v.is_categorical());
  EXPECT_EQ(v.category(), 7);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 7.0);
}

TEST(ValueTest, DefaultIsNumericZero) {
  Value v;
  EXPECT_TRUE(v.is_numeric());
  EXPECT_DOUBLE_EQ(v.numeric(), 0.0);
}

TEST(ValueTest, EqualityRespectsKind) {
  EXPECT_EQ(Value::Numeric(2.0), Value::Numeric(2.0));
  EXPECT_FALSE(Value::Numeric(2.0) == Value::Categorical(2));
  EXPECT_FALSE(Value::Numeric(2.0) == Value::Numeric(3.0));
  EXPECT_EQ(Value::Categorical(1), Value::Categorical(1));
}

// ---------------------------------------------------------------- Schema

Schema MakeTestSchema() {
  return Schema({
      Attribute{"id", AttributeType::kNumeric, AttributeRole::kIdentifier, {}},
      Attribute{"age", AttributeType::kNumeric,
                AttributeRole::kQuasiIdentifier, {}},
      Attribute{"diagnosis", AttributeType::kNominal,
                AttributeRole::kConfidential,
                {"flu", "cold", "covid"}},
  });
}

TEST(SchemaTest, IndexOfFindsAttributes) {
  Schema schema = MakeTestSchema();
  ASSERT_TRUE(schema.IndexOf("age").ok());
  EXPECT_EQ(schema.IndexOf("age").value(), 1u);
  EXPECT_EQ(schema.IndexOf("nope").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, RoleQueries) {
  Schema schema = MakeTestSchema();
  EXPECT_EQ(schema.QuasiIdentifierIndices(), std::vector<size_t>{1});
  EXPECT_EQ(schema.ConfidentialIndices(), std::vector<size_t>{2});
  EXPECT_EQ(schema.IndicesWithRole(AttributeRole::kIdentifier),
            std::vector<size_t>{0});
  EXPECT_TRUE(schema.IndicesWithRole(AttributeRole::kOther).empty());
}

TEST(SchemaTest, WithRoleReplacesOneRole) {
  Schema schema = MakeTestSchema();
  auto updated = schema.WithRole("id", AttributeRole::kOther);
  ASSERT_TRUE(updated.ok());
  EXPECT_TRUE(updated->IndicesWithRole(AttributeRole::kIdentifier).empty());
  // Original untouched.
  EXPECT_EQ(schema.IndicesWithRole(AttributeRole::kIdentifier).size(), 1u);
}

TEST(SchemaTest, WithRoleUnknownNameFails) {
  Schema schema = MakeTestSchema();
  EXPECT_EQ(schema.WithRole("ghost", AttributeRole::kOther).status().code(),
            StatusCode::kNotFound);
}

TEST(SchemaTest, NamesAreStable) {
  EXPECT_STREQ(AttributeRoleName(AttributeRole::kQuasiIdentifier),
               "quasi-identifier");
  EXPECT_STREQ(AttributeTypeName(AttributeType::kNominal), "nominal");
}

// --------------------------------------------------------------- Dataset

TEST(DatasetTest, AppendValidatesArity) {
  Dataset data(MakeTestSchema());
  EXPECT_EQ(data.Append({Value::Numeric(1)}).code(),
            StatusCode::kInvalidArgument);
}

TEST(DatasetTest, AppendValidatesKinds) {
  Dataset data(MakeTestSchema());
  // diagnosis must be categorical.
  Status status = data.Append(
      {Value::Numeric(1), Value::Numeric(30), Value::Numeric(0)});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(DatasetTest, AppendInPlaceDropsTheRowOnError) {
  Dataset data(MakeTestSchema());
  ASSERT_TRUE(data.AppendInPlace([](std::span<Value> row) {
                    row[0] = Value::Numeric(7);
                    row[1] = Value::Numeric(35);
                    row[2] = Value::Categorical(1);
                    return Status::Ok();
                  })
                  .ok());
  Status status = data.AppendInPlace([](std::span<Value> row) {
    row[0] = Value::Numeric(8);
    return Status::IoError("bad row");
  });
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  ASSERT_EQ(data.NumRecords(), 1u);
  EXPECT_EQ(data.cell(0, 0).numeric(), 7.0);
  EXPECT_EQ(data.cell(0, 2).category(), 1);
  // The dropped row leaves no cells behind: the next append is row 1.
  ASSERT_TRUE(data.Append({Value::Numeric(9), Value::Numeric(40),
                           Value::Categorical(0)})
                  .ok());
  EXPECT_EQ(data.cell(1, 0).numeric(), 9.0);
}

Dataset MakeSmallDataset() {
  Dataset data(MakeTestSchema());
  EXPECT_TRUE(data.Append({Value::Numeric(1), Value::Numeric(30),
                           Value::Categorical(0)})
                  .ok());
  EXPECT_TRUE(data.Append({Value::Numeric(2), Value::Numeric(40),
                           Value::Categorical(2)})
                  .ok());
  EXPECT_TRUE(data.Append({Value::Numeric(3), Value::Numeric(50),
                           Value::Categorical(1)})
                  .ok());
  return data;
}

TEST(DatasetTest, CellAccess) {
  Dataset data = MakeSmallDataset();
  EXPECT_EQ(data.NumRecords(), 3u);
  EXPECT_EQ(data.NumAttributes(), 3u);
  EXPECT_DOUBLE_EQ(data.cell(1, 1).numeric(), 40.0);
  EXPECT_EQ(data.cell(2, 2).category(), 1);
}

TEST(DatasetTest, SetCellValidates) {
  Dataset data = MakeSmallDataset();
  EXPECT_TRUE(data.SetCell(0, 1, Value::Numeric(33)).ok());
  EXPECT_DOUBLE_EQ(data.cell(0, 1).numeric(), 33.0);
  EXPECT_EQ(data.SetCell(0, 2, Value::Numeric(1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(data.SetCell(9, 0, Value::Numeric(1)).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(data.SetCell(0, 9, Value::Numeric(1)).code(),
            StatusCode::kOutOfRange);
}

TEST(DatasetTest, ColumnAsDoubleCastsCategories) {
  Dataset data = MakeSmallDataset();
  EXPECT_EQ(data.ColumnAsDouble(1), (std::vector<double>{30, 40, 50}));
  EXPECT_EQ(data.ColumnAsDouble(2), (std::vector<double>{0, 2, 1}));
}

TEST(DatasetTest, SelectPicksRows) {
  Dataset data = MakeSmallDataset();
  auto selected = data.Select({2, 0});
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->NumRecords(), 2u);
  EXPECT_DOUBLE_EQ(selected->cell(0, 1).numeric(), 50.0);
  EXPECT_DOUBLE_EQ(selected->cell(1, 1).numeric(), 30.0);
  EXPECT_EQ(data.Select({7}).status().code(), StatusCode::kOutOfRange);
}

TEST(DatasetTest, ReplaceSchemaChangesRolesOnly) {
  Dataset data = MakeSmallDataset();
  auto schema = data.schema().WithRole("age", AttributeRole::kOther);
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(data.ReplaceSchema(std::move(schema).value()).ok());
  EXPECT_TRUE(data.schema().QuasiIdentifierIndices().empty());
  EXPECT_EQ(data.ReplaceSchema(Schema()).code(),
            StatusCode::kInvalidArgument);
}

TEST(DatasetTest, EqualityIsDeep) {
  Dataset a = MakeSmallDataset();
  Dataset b = MakeSmallDataset();
  EXPECT_TRUE(a == b);
  ASSERT_TRUE(b.SetCell(0, 1, Value::Numeric(31)).ok());
  EXPECT_FALSE(a == b);
}

TEST(DatasetFromColumnsTest, BuildsNumericDataset) {
  auto data = DatasetFromColumns(
      {"x", "y"}, {{1, 2, 3}, {4, 5, 6}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->NumRecords(), 3u);
  EXPECT_DOUBLE_EQ(data->cell(1, 1).numeric(), 5.0);
}

TEST(DatasetFromColumnsTest, RejectsMismatchedShapes) {
  EXPECT_FALSE(DatasetFromColumns({"x"}, {{1, 2}, {3, 4}},
                                  {AttributeRole::kOther})
                   .ok());
  EXPECT_FALSE(DatasetFromColumns({"x", "y"}, {{1, 2}, {3}},
                                  {AttributeRole::kOther,
                                   AttributeRole::kOther})
                   .ok());
  EXPECT_FALSE(DatasetFromColumns({}, {}, {}).ok());
}

TEST(DatasetTest, AppendOwnRowSurvivesGrowth) {
  // A row view into the dataset's own buffer stays valid as the append
  // grows that buffer.
  Schema schema({Attribute{"a", AttributeType::kNumeric,
                           AttributeRole::kOther, {}},
                 Attribute{"b", AttributeType::kNumeric,
                           AttributeRole::kOther, {}}});
  Dataset data(schema);
  ASSERT_TRUE(data.Append({Value::Numeric(1), Value::Numeric(2)}).ok());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(data.Append(data.record(0)).ok());
  ASSERT_EQ(data.NumRecords(), 101u);
  EXPECT_DOUBLE_EQ(data.cell(100, 0).numeric(), 1.0);
  EXPECT_DOUBLE_EQ(data.cell(100, 1).numeric(), 2.0);
}

// ------------------------------------------------------ heap allocations

// Heap allocations `fn` makes.
template <typename Fn>
size_t CountAllocations(Fn fn) {
  const size_t before = g_heap_allocations.load();
  fn();
  return g_heap_allocations.load() - before;
}

constexpr size_t kAllocationRows = 10000;
// O(1) in the row count: a handful of buffers, each grown geometrically.
constexpr size_t kMaxAllocations = 64;

std::string WideNumericCsv(size_t rows) {
  std::string text = "QI0,QI1,QI2,CONF\n";
  for (size_t row = 0; row < rows; ++row) {
    for (int col = 0; col < 4; ++col) {
      if (col > 0) text += ',';
      // 17 significant digits: past the small-string buffer.
      text += FormatDouble(0.12345678901234567 * static_cast<double>(row + 1),
                           17);
    }
    text += '\n';
  }
  return text;
}

TEST(DatasetAllocationTest, CsvBatchReadIsNotPerRow) {
  auto reader = StreamingCsvReader::FromStreamNumeric(
      std::make_unique<std::istringstream>(WideNumericCsv(kAllocationRows)));
  ASSERT_TRUE(reader.ok());
  Dataset batch((*reader)->schema());
  size_t got = 0;
  const size_t allocations = CountAllocations([&]() {
    got = (*reader)->ReadInto(&batch, kAllocationRows).value();
  });
  EXPECT_EQ(got, kAllocationRows);
  EXPECT_LE(allocations, kMaxAllocations);
}

TEST(DatasetAllocationTest, CopySelectAndAggregateAreNotPerRow) {
  Dataset data = MakeUniformDataset(kAllocationRows, 3, 7);
  std::vector<size_t> rows;
  for (size_t row = 0; row < kAllocationRows; row += 2) rows.push_back(row);
  Partition partition;
  for (size_t row = 0; row < kAllocationRows; row += 5) {
    partition.clusters.push_back({row, row + 1, row + 2, row + 3, row + 4});
  }

  EXPECT_LE(CountAllocations([&]() { Dataset copy = data; }),
            kMaxAllocations);
  EXPECT_LE(CountAllocations([&]() { ASSERT_TRUE(data.Select(rows).ok()); }),
            kMaxAllocations);
  EXPECT_LE(CountAllocations([&]() {
              ASSERT_TRUE(AggregatePartition(data, partition).ok());
            }),
            kMaxAllocations);
}

// ----------------------------------------------------------------- Stats

TEST(StatsTest, MeanVarianceStdDev) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2.0);
}

TEST(StatsTest, EmptyInputsReturnZero) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(Mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(Variance(empty), 0.0);
  EXPECT_DOUBLE_EQ(Min(empty), 0.0);
  EXPECT_DOUBLE_EQ(Max(empty), 0.0);
  EXPECT_DOUBLE_EQ(Range(empty), 0.0);
}

TEST(StatsTest, MinMaxRange) {
  std::vector<double> xs = {3, -1, 7, 2};
  EXPECT_DOUBLE_EQ(Min(xs), -1.0);
  EXPECT_DOUBLE_EQ(Max(xs), 7.0);
  EXPECT_DOUBLE_EQ(Range(xs), 8.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
}

TEST(StatsTest, PearsonCorrelationKnownCases) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, neg), -1.0, 1e-12);
  std::vector<double> constant = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(xs, constant), 0.0);
}

TEST(StatsTest, SortOrderIsStable) {
  std::vector<double> xs = {2, 1, 2, 0};
  EXPECT_EQ(SortOrder(xs), (std::vector<size_t>{3, 1, 0, 2}));
}

// The order the radix SortOrder must reproduce: a stable comparison sort.
std::vector<size_t> ReferenceSortOrder(const std::vector<double>& xs) {
  std::vector<size_t> order(xs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&xs](size_t a, size_t b) { return xs[a] < xs[b]; });
  return order;
}

// Finite and infinite inputs that stress the radix keys: heavy ties, both
// zeros side by side, negatives, subnormals, +-inf and the extremes, and
// random bit patterns (every byte of the key varies).
std::vector<std::vector<double>> SortOrderInputs(size_t n, uint64_t seed) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  const std::vector<double> ties = {-1.0, -0.0, 0.0, 1.0, 2.0};
  const std::vector<double> specials = {
      -0.0,  0.0,  -1.5, 1.5,        kTiny,       -kTiny, 3 * kTiny, kInf,
      -kInf, kMax, -kMax, kMinNormal, -kMinNormal, 1e-300, -1e300};
  Rng rng(seed);
  std::vector<double> tied(n), special(n), bits(n);
  for (size_t i = 0; i < n; ++i) {
    tied[i] = ties[rng.NextBounded(ties.size())];
    special[i] = specials[rng.NextBounded(specials.size())];
    do {
      bits[i] = std::bit_cast<double>(rng.Next());
    } while (std::isnan(bits[i]));
  }
  return {tied, special, bits};
}

TEST(StatsTest, SortOrderMatchesStableComparisonSort) {
  for (size_t n : {0, 1, 2, 4096, 50000}) {
    for (const std::vector<double>& xs : SortOrderInputs(n, 17 + n)) {
      const std::vector<size_t> expected = ReferenceSortOrder(xs);
      ASSERT_EQ(SortOrder(xs), expected) << "n=" << n;
      if (n < 2) continue;  // EmdCalculator needs two records
      EmdCalculator emd(xs);
      for (size_t position = 0; position < n; ++position) {
        ASSERT_EQ(emd.RankOf(expected[position]), position) << "n=" << n;
      }
    }
  }
}

TEST(StatsTest, SortOrderPlacesNanBySign) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {std::copysign(nan, 1.0), inf,
                            std::copysign(nan, -1.0), -inf, 0.0};
  EXPECT_EQ(SortOrder(xs), (std::vector<size_t>{2, 3, 4, 1, 0}));
}

TEST(StatsTest, QiConfidentialCorrelationPerfectLinear) {
  // conf = qi exactly -> R = 1.
  auto data = DatasetFromColumns(
      {"q", "c"}, {{1, 2, 3, 4, 5}, {2, 4, 6, 8, 10}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  EXPECT_NEAR(QiConfidentialCorrelation(*data), 1.0, 1e-9);
}

TEST(StatsTest, QiConfidentialCorrelationNoQiReturnsZero) {
  auto data = DatasetFromColumns(
      {"a", "c"}, {{1, 2, 3}, {3, 2, 1}},
      {AttributeRole::kOther, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  EXPECT_DOUBLE_EQ(QiConfidentialCorrelation(*data), 0.0);
}

// ------------------------------------------------------------------- CSV

TEST(CsvTest, RoundTripNumericAndCategorical) {
  Dataset data = MakeSmallDataset();
  std::string text = WriteCsvString(data);
  auto parsed = ParseCsvString(text, data.schema());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(*parsed == data);
}

TEST(CsvTest, HeaderMismatchFails) {
  Dataset data = MakeSmallDataset();
  auto parsed = ParseCsvString("id,wrong,diagnosis\n", data.schema());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, UnknownCategoryFails) {
  Dataset data = MakeSmallDataset();
  auto parsed =
      ParseCsvString("id,age,diagnosis\n1,30,plague\n", data.schema());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, MalformedNumberFails) {
  Dataset data = MakeSmallDataset();
  auto parsed =
      ParseCsvString("id,age,diagnosis\n1,abc,flu\n", data.schema());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, WrongFieldCountFails) {
  Dataset data = MakeSmallDataset();
  auto parsed = ParseCsvString("id,age,diagnosis\n1,30\n", data.schema());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, EmptyInputFails) {
  Dataset data = MakeSmallDataset();
  EXPECT_EQ(ParseCsvString("", data.schema()).status().code(),
            StatusCode::kIoError);
}

TEST(CsvTest, BlankLinesAreSkipped) {
  Dataset data = MakeSmallDataset();
  auto parsed = ParseCsvString("id,age,diagnosis\n1,30,flu\n\n2,40,covid\n",
                               data.schema());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumRecords(), 2u);
}

TEST(CsvTest, FileRoundTrip) {
  Dataset data = MakeSmallDataset();
  const std::string path = ::testing::TempDir() + "/tcm_csv_test.csv";
  ASSERT_TRUE(WriteCsv(data, path).ok());
  auto loaded = ReadCsv(path, data.schema());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(*loaded == data);
}

// The stream buffers what WriteCsv writes, so a full disk surfaces only
// when the tail is flushed: both writers must report it.
TEST(CsvTest, FullDiskIsAWriteError) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this host";
  }
  Dataset data = MakeSmallDataset();
  EXPECT_EQ(WriteCsv(data, "/dev/full").code(), StatusCode::kIoError);
  auto writer = StreamingCsvWriter::Open("/dev/full", data.schema());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  // The rows fit the stream's buffer; only Close can see the failure.
  EXPECT_TRUE((*writer)->WriteRows(data).ok());
  EXPECT_EQ((*writer)->Close().code(), StatusCode::kIoError);
}

// ReadInto fills rows in place, so a window that cannot hold the
// reader's cells is refused up front, with Dataset::Append's message,
// and the reader keeps its records.
TEST(CsvTest, StreamedWindowOfOtherCellKindsIsRejected) {
  Dataset data = MakeSmallDataset();
  auto reader = StreamingCsvReader::FromStream(
      std::make_unique<std::istringstream>("id,age,diagnosis\n1,30,flu\n"),
      data.schema());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto numeric = [](std::vector<std::string> names) {
    std::vector<Attribute> attrs;
    for (std::string& name : names) {
      attrs.push_back(Attribute{std::move(name), AttributeType::kNumeric,
                                AttributeRole::kOther, {}});
    }
    return Schema(std::move(attrs));
  };

  Dataset all_numeric(numeric({"id", "age", "diagnosis"}));
  Status kinds = (*reader)->ReadInto(&all_numeric, 1).status();
  EXPECT_EQ(kinds.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(kinds.message(), "cell kind mismatch for attribute 'diagnosis'");
  Dataset narrow(numeric({"id", "age"}));
  Status arity = (*reader)->ReadInto(&narrow, 1).status();
  EXPECT_EQ(arity.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(arity.message(), "record arity 3 does not match schema arity 2");
  EXPECT_TRUE(all_numeric.empty());
  EXPECT_TRUE(narrow.empty());

  Dataset window(data.schema());
  EXPECT_EQ((*reader)->ReadInto(&window, 5).value(), 1u);
  EXPECT_EQ((*reader)->rows_read(), 1u);
}

TEST(CsvTest, MissingFileFails) {
  Dataset data = MakeSmallDataset();
  EXPECT_EQ(ReadCsv("/nonexistent/x.csv", data.schema()).status().code(),
            StatusCode::kIoError);
}

// ------------------------------------------------------------ Generators

TEST(GeneratorTest, CensusLikeShapeAndRoles) {
  Dataset census = MakeCensusLike();
  EXPECT_EQ(census.NumRecords(), 1080u);
  EXPECT_EQ(census.NumAttributes(), 4u);
  EXPECT_EQ(census.schema().QuasiIdentifierIndices().size(), 2u);
  EXPECT_TRUE(census.schema().ConfidentialIndices().empty());
}

TEST(GeneratorTest, McdPromotesFedtax) {
  Dataset mcd = MakeMcdDataset();
  auto conf = mcd.schema().ConfidentialIndices();
  ASSERT_EQ(conf.size(), 1u);
  EXPECT_EQ(mcd.schema().at(conf[0]).name, "FEDTAX");
}

TEST(GeneratorTest, HcdPromotesFica) {
  Dataset hcd = MakeHcdDataset();
  auto conf = hcd.schema().ConfidentialIndices();
  ASSERT_EQ(conf.size(), 1u);
  EXPECT_EQ(hcd.schema().at(conf[0]).name, "FICA");
}

TEST(GeneratorTest, McdCorrelationNearPaperValue) {
  // Paper reports 0.52 for the MCD data set.
  EXPECT_NEAR(QiConfidentialCorrelation(MakeMcdDataset()), 0.52, 0.06);
}

TEST(GeneratorTest, HcdCorrelationNearPaperValue) {
  // Paper reports 0.92 for the HCD data set.
  EXPECT_NEAR(QiConfidentialCorrelation(MakeHcdDataset()), 0.92, 0.04);
}

TEST(GeneratorTest, PatientDischargeShape) {
  PatientDischargeOptions options;
  options.num_records = 2000;
  Dataset data = MakePatientDischargeLike(options);
  EXPECT_EQ(data.NumRecords(), 2000u);
  EXPECT_EQ(data.schema().QuasiIdentifierIndices().size(), 7u);
  EXPECT_EQ(data.schema().ConfidentialIndices().size(), 1u);
}

TEST(GeneratorTest, PatientDischargeCorrelationNearPaperValue) {
  // Paper reports 0.129; discretization adds noise, allow a wide band.
  PatientDischargeOptions options;
  options.num_records = 8000;
  EXPECT_NEAR(QiConfidentialCorrelation(MakePatientDischargeLike(options)),
              0.129, 0.06);
}

TEST(GeneratorTest, GeneratorsAreDeterministic) {
  CensusLikeOptions options;
  options.seed = 99;
  EXPECT_TRUE(MakeCensusLike(options) == MakeCensusLike(options));
  options.seed = 100;
  EXPECT_FALSE(MakeCensusLike(options) == MakeCensusLike({1080, 99}));
}

TEST(GeneratorTest, UniformDatasetShape) {
  Dataset data = MakeUniformDataset(100, 4, 1);
  EXPECT_EQ(data.NumRecords(), 100u);
  EXPECT_EQ(data.schema().QuasiIdentifierIndices().size(), 4u);
  EXPECT_EQ(data.schema().ConfidentialIndices().size(), 1u);
  for (size_t col = 0; col < data.NumAttributes(); ++col) {
    for (double v : data.ColumnAsDouble(col)) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

TEST(GeneratorTest, ClusteredDatasetHasRequestedShape) {
  Dataset data = MakeClusteredDataset(300, 2, 5, 3);
  EXPECT_EQ(data.NumRecords(), 300u);
  EXPECT_EQ(data.schema().QuasiIdentifierIndices().size(), 2u);
  EXPECT_EQ(data.schema().ConfidentialIndices().size(), 1u);
}

TEST(GeneratorTest, ClusteredConfidentialCorrelatesWithQis) {
  // The mode drives both QIs and the confidential value.
  Dataset data = MakeClusteredDataset(1000, 2, 4, 3);
  EXPECT_GT(QiConfidentialCorrelation(data), 0.3);
}

// ----------------------------------------------------------------- Summary

// Four records: a QI, an "other" column with two values and a
// confidential column that rises with the QI.
Dataset SummaryData() {
  auto data = DatasetFromColumns(
      {"q", "other", "conf"},
      {{10, 20, 30, 40}, {7, 7, 8, 8}, {1, 2, 3, 4}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kOther,
       AttributeRole::kConfidential});
  return std::move(data).value();
}

TEST(SummaryTest, StatisticsMatchKnownData) {
  Dataset data = SummaryData();
  auto summary = SummarizeDataset(data);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->records, 4u);
  ASSERT_EQ(summary->attributes.size(), 3u);
  const AttributeSummary& q = summary->attributes[0];
  ASSERT_TRUE(q.statistics.has_value());
  EXPECT_DOUBLE_EQ(q.statistics->min, 10.0);
  EXPECT_DOUBLE_EQ(q.statistics->max, 40.0);
  EXPECT_DOUBLE_EQ(q.statistics->mean, 25.0);
  EXPECT_DOUBLE_EQ(q.statistics->median, 25.0);
  EXPECT_EQ(q.distinct_values, 4u);
  EXPECT_EQ(summary->attributes[1].distinct_values, 2u);
  ASSERT_EQ(summary->qi_confidential_correlation.size(), 1u);
  ASSERT_TRUE(summary->qi_confidential_correlation[0].has_value());
  EXPECT_NEAR(*summary->qi_confidential_correlation[0], 1.0, 1e-9);
}

TEST(SummaryTest, EmptyDatasetRejected) {
  Dataset empty;
  EXPECT_FALSE(SummarizeDataset(empty).ok());
}

TEST(SummaryTest, FormatIncludesEveryAttribute) {
  auto summary = SummarizeDataset(SummaryData());
  ASSERT_TRUE(summary.ok());
  std::string text = FormatSummary(*summary);
  EXPECT_NE(text.find("conf"), std::string::npos);
  EXPECT_NE(text.find("quasi-identifier"), std::string::npos);
  EXPECT_NE(text.find("records: 4"), std::string::npos);
}

TEST(SummaryTest, HistogramCountsSumToRecords) {
  Dataset data = MakeUniformDataset(500, 2, 3);
  auto histogram = ColumnHistogram(data, 0, 10);
  ASSERT_TRUE(histogram.ok());
  EXPECT_EQ(std::accumulate(histogram->begin(), histogram->end(), size_t{0}),
            500u);
}

TEST(SummaryTest, HistogramErrors) {
  Dataset data = SummaryData();
  EXPECT_FALSE(ColumnHistogram(data, 9, 4).ok());
  EXPECT_FALSE(ColumnHistogram(data, 0, 0).ok());
}

TEST(SummaryTest, ConstantColumnHistogramLandsInFirstBin) {
  auto data = DatasetFromColumns({"x"}, {{5, 5, 5}}, {AttributeRole::kOther});
  ASSERT_TRUE(data.ok());
  auto histogram = ColumnHistogram(*data, 0, 4);
  ASSERT_TRUE(histogram.ok());
  EXPECT_EQ((*histogram)[0], 3u);
}

}  // namespace
}  // namespace tcm
