// Property-based invariant suite over the whole AlgorithmRegistry: for
// EVERY registered algorithm, on randomized datasets across seeds, k and
// t, the released table must pass the independent k-anonymity and
// t-closeness verifiers in src/privacy/ (the verifiers are the oracle —
// none of these tests knows how any algorithm works). Also pinned: the
// partition covers each record exactly once with clusters of >= k, the
// confidential column is released unchanged, and reruns are
// deterministic.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/generator.h"
#include "distance/emd.h"
#include "engine/pipeline.h"
#include "engine/registry.h"
#include "engine/thread_pool.h"
#include "microagg/partition.h"
#include "privacy/equivalence.h"
#include "privacy/verify.h"

namespace tcm {
namespace {

// Canonical algorithm names: every registry entry minus the aliases
// (which share factories with their targets).
std::vector<std::string> CanonicalAlgorithms() {
  std::vector<std::string> names;
  for (const std::string& name : AlgorithmRegistry::BuiltIns().Names()) {
    if (name == "kanon" || name == "tclose") continue;  // aliases
    names.push_back(name);
  }
  return names;
}

struct PropertyCase {
  std::string dataset;
  Dataset data;
};

std::vector<PropertyCase> MakeDatasets(size_t n, uint64_t seed) {
  std::vector<PropertyCase> cases;
  cases.push_back({"uniform", MakeUniformDataset(n, 3, seed)});
  cases.push_back({"clustered", MakeClusteredDataset(n, 2, 4, seed + 100)});
  cases.push_back(
      {"adult", MakeAdultLike({.num_records = n, .seed = seed + 200})});
  return cases;
}

void CheckInvariants(const Dataset& data, const std::string& algorithm,
                     const AlgorithmParams& params,
                     const std::string& label) {
  auto result = RunAlgorithm(data, algorithm, params);
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();

  // Partition: every record exactly once, clusters of >= k.
  EXPECT_TRUE(ValidatePartition(result->partition, data.NumRecords(),
                                params.k)
                  .ok())
      << label;

  // Release shape: same records, same schema.
  EXPECT_EQ(result->anonymized.NumRecords(), data.NumRecords()) << label;

  // The confidential attribute is released unchanged (only QIs are
  // masked) — t-closeness is about grouping, not perturbation.
  for (size_t conf : data.schema().ConfidentialIndices()) {
    for (size_t row = 0; row < data.NumRecords(); ++row) {
      ASSERT_TRUE(data.cell(row, conf) ==
                  result->anonymized.cell(row, conf))
          << label << ": confidential cell changed at row " << row;
    }
  }

  // The oracle: the independent verifiers must accept the release.
  auto verified = CheckRelease(result->anonymized, params.k, params.t);
  ASSERT_TRUE(verified.ok()) << label;
  EXPECT_TRUE(verified->k_anonymous)
      << label << ": release is not " << params.k << "-anonymous";
  EXPECT_TRUE(verified->t_close)
      << label << ": release is not " << params.t << "-close";
}

TEST(PropertyTest, RegistryCoversAllEightAlgorithms) {
  EXPECT_EQ(CanonicalAlgorithms().size(), 8u);
}

TEST(PropertyTest, EveryAlgorithmSatisfiesVerifiersAcrossSeedsKT) {
  for (const std::string& algorithm : CanonicalAlgorithms()) {
    for (uint64_t seed : {1u, 2u}) {
      for (const PropertyCase& pc : MakeDatasets(61, seed)) {
        for (size_t k : {2u, 5u}) {
          for (double t : {0.2, 0.4}) {
            AlgorithmParams params;
            params.k = k;
            params.t = t;
            params.seed = seed;
            CheckInvariants(pc.data, algorithm, params,
                            algorithm + "/" + pc.dataset + "/seed=" +
                                std::to_string(seed) + "/k=" +
                                std::to_string(k) + "/t=" +
                                std::to_string(t));
          }
        }
      }
    }
  }
}

TEST(PropertyTest, EveryAlgorithmSatisfiesVerifiersOnLargerOddSizes) {
  for (const std::string& algorithm : CanonicalAlgorithms()) {
    for (const PropertyCase& pc : MakeDatasets(163, 9)) {
      AlgorithmParams params;
      params.k = 4;
      params.t = 0.25;
      params.seed = 9;
      CheckInvariants(pc.data, algorithm, params,
                      algorithm + "/" + pc.dataset + "/n=163");
    }
  }
}

TEST(PropertyTest, TightTStillSatisfiesBothGuarantees) {
  // A very small t forces giant clusters; the guarantees must survive
  // the degenerate regime (paper-expected: one cluster is trivially
  // t-close).
  for (const std::string& algorithm : CanonicalAlgorithms()) {
    AlgorithmParams params;
    params.k = 3;
    params.t = 0.01;
    params.seed = 5;
    CheckInvariants(MakeUniformDataset(60, 2, 5), algorithm, params,
                    algorithm + "/tight-t");
  }
}

TEST(PropertyTest, RerunsAreDeterministic) {
  Dataset data = MakeClusteredDataset(80, 2, 3, 17);
  for (const std::string& algorithm : CanonicalAlgorithms()) {
    AlgorithmParams params;
    params.k = 3;
    params.t = 0.3;
    params.seed = 21;
    auto first = RunAlgorithm(data, algorithm, params);
    auto second = RunAlgorithm(data, algorithm, params);
    ASSERT_TRUE(first.ok() && second.ok()) << algorithm;
    EXPECT_EQ(WriteCsvString(first->anonymized),
              WriteCsvString(second->anonymized))
        << algorithm << ": rerun changed the release";
  }
}

// Pooled and serial verify on the same release: same classes, same
// measured levels, same verdict.
void ExpectPooledVerifyMatchesSerial(const Dataset& release, size_t k,
                                     double t, ThreadPool* pool,
                                     const std::string& label,
                                     ReleaseVerification* verdict) {
  auto serial_classes = EquivalenceClasses(release);
  auto pooled_classes = EquivalenceClasses(release, pool);
  ASSERT_TRUE(serial_classes.ok() && pooled_classes.ok()) << label;
  EXPECT_EQ(*serial_classes, *pooled_classes) << label;
  auto serial = CheckRelease(release, k, t);
  auto pooled = CheckRelease(release, k, t, pool);
  ASSERT_TRUE(serial.ok() && pooled.ok()) << label;
  EXPECT_EQ(serial->num_classes, pooled->num_classes) << label;
  EXPECT_EQ(serial->min_class_size, pooled->min_class_size) << label;
  EXPECT_EQ(serial->max_class_emd, pooled->max_class_emd) << label;
  EXPECT_EQ(serial->mean_class_emd, pooled->mean_class_emd) << label;
  EXPECT_EQ(serial->k_anonymous, pooled->k_anonymous) << label;
  EXPECT_EQ(serial->t_close, pooled->t_close) << label;
  *verdict = *pooled;
}

// The verify stage's pooled CheckRelease is the serial one fanned out:
// on every algorithm's release it agrees with the serial check, and it
// still rejects a release with one corrupted QI cell (k) or one
// corrupted confidential cell (t, checked at the release's own max EMD).
TEST(PropertyTest, PooledCheckReleaseMatchesSerial) {
  ThreadPool pool(3);
  for (const std::string& algorithm : CanonicalAlgorithms()) {
    for (PropertyCase& pc : MakeDatasets(163, 4)) {
      const std::string label = algorithm + "/" + pc.dataset;
      AlgorithmParams params;
      params.k = 4;
      params.t = 0.3;
      params.seed = 4;
      auto result = RunAlgorithm(pc.data, algorithm, params);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      const Dataset& release = result->anonymized;
      ReleaseVerification verdict;
      ExpectPooledVerifyMatchesSerial(release, params.k, params.t, &pool,
                                      label, &verdict);
      EXPECT_TRUE(verdict.ok()) << label;

      // k: a unique value in one numeric QI cell isolates its row.
      for (size_t col : release.schema().QuasiIdentifierIndices()) {
        if (release.schema().at(col).is_categorical()) continue;
        Dataset bad = release;
        ASSERT_TRUE(bad.SetCell(0, col, Value::Numeric(1e9)).ok());
        ExpectPooledVerifyMatchesSerial(bad, params.k, params.t, &pool,
                                        label + "/qi", &verdict);
        EXPECT_FALSE(verdict.k_anonymous) << label;
        break;
      }

      // t: move one member of the worst class to an extreme of the
      // confidential order; one of the two directions must push that
      // class past the release's own max EMD.
      auto classes = EquivalenceClasses(release);
      ASSERT_TRUE(classes.ok());
      auto report = CheckRelease(release, params.k, params.t);
      ASSERT_TRUE(report.ok());
      EmdCalculator emd(release);
      size_t worst = 0;
      for (size_t c = 0; c < classes->size(); ++c) {
        if (emd.ClusterEmd((*classes)[c]) >
            emd.ClusterEmd((*classes)[worst])) {
          worst = c;
        }
      }
      const size_t row = (*classes)[worst].front();
      const size_t conf = release.schema().ConfidentialIndices().front();
      const Attribute& attr = release.schema().at(conf);
      std::vector<Value> extremes;
      if (attr.is_categorical()) {
        extremes = {Value::Categorical(0),
                    Value::Categorical(
                        static_cast<int32_t>(attr.categories.size()) - 1)};
      } else {
        std::vector<double> values = release.ColumnAsDouble(conf);
        extremes = {
            Value::Numeric(*std::min_element(values.begin(), values.end()) -
                           1),
            Value::Numeric(*std::max_element(values.begin(), values.end()) +
                           1)};
      }
      bool rejected = false;
      for (const Value& extreme : extremes) {
        Dataset bad = release;
        ASSERT_TRUE(bad.SetCell(row, conf, extreme).ok());
        ExpectPooledVerifyMatchesSerial(bad, params.k, report->max_class_emd,
                                        &pool, label + "/conf", &verdict);
        rejected = rejected || !verdict.t_close;
      }
      EXPECT_TRUE(rejected) << label;
    }
  }
}

}  // namespace
}  // namespace tcm
