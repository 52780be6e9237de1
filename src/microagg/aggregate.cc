#include "microagg/aggregate.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "engine/thread_pool.h"

namespace tcm {

Value ClusterAggregate(const Dataset& data, const Cluster& rows,
                       size_t attribute_index) {
  TCM_CHECK(!rows.empty());
  const Attribute& attr = data.schema().at(attribute_index);
  switch (attr.type) {
    case AttributeType::kNumeric: {
      double sum = 0.0;
      for (size_t row : rows) sum += data.cell(row, attribute_index).numeric();
      return Value::Numeric(sum / static_cast<double>(rows.size()));
    }
    case AttributeType::kOrdinal: {
      // Median category: lower median for even sizes, as is conventional
      // for ordinal microaggregation.
      std::vector<int32_t> codes;
      codes.reserve(rows.size());
      for (size_t row : rows) {
        codes.push_back(data.cell(row, attribute_index).category());
      }
      std::sort(codes.begin(), codes.end());
      return Value::Categorical(codes[(codes.size() - 1) / 2]);
    }
    case AttributeType::kNominal: {
      // Modal category; ties broken toward the smallest code for
      // determinism.
      std::map<int32_t, size_t> counts;
      for (size_t row : rows) {
        ++counts[data.cell(row, attribute_index).category()];
      }
      int32_t best_code = counts.begin()->first;
      size_t best_count = 0;
      for (const auto& [code, count] : counts) {
        if (count > best_count) {
          best_count = count;
          best_code = code;
        }
      }
      return Value::Categorical(best_code);
    }
  }
  TCM_CHECK(false) << "unreachable";
  return Value();
}

Result<Dataset> AggregatePartition(const Dataset& data,
                                   const Partition& partition,
                                   ThreadPool* pool) {
  TCM_RETURN_IF_ERROR(ValidatePartition(partition, data.NumRecords(), 1));
  std::vector<size_t> qi = data.schema().QuasiIdentifierIndices();
  if (qi.empty()) {
    return Status::FailedPrecondition(
        "dataset has no quasi-identifier attributes to aggregate");
  }
  Dataset out = data;
  const std::vector<Cluster>& clusters = partition.clusters;
  ParallelForRanges(pool, clusters.size(), [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      for (size_t col : qi) {
        // The aggregate has the column's kind and the partition was
        // validated, so the write cannot fail.
        Value aggregate = ClusterAggregate(data, clusters[c], col);
        for (size_t row : clusters[c]) {
          TCM_CHECK(out.SetCell(row, col, aggregate).ok());
        }
      }
    }
  });
  return out;
}

}  // namespace tcm
