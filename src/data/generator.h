#ifndef TCM_DATA_GENERATOR_H_
#define TCM_DATA_GENERATOR_H_

#include <cstdint>

#include "data/dataset.h"

namespace tcm {

// Synthetic stand-ins for the paper's evaluation data. The real data
// (CASC Census, OSHPD Patient Discharge 2010) are not redistributable, so
// we generate data sets that reproduce the properties the paper's analysis
// depends on: record counts, attribute roles, and the strength of the
// dependence between quasi-identifiers and the confidential attribute
// (the paper reports multiple correlations of 0.52 for MCD, 0.92 for HCD
// and 0.129 for Patient Discharge). See DESIGN.md for the substitution
// rationale.

struct CensusLikeOptions {
  size_t num_records = 1080;  // paper's Census extract size
  uint64_t seed = 7;
};

// Four numeric attributes mirroring the paper's Census extract:
//   TAXINC, POTHVAL  — quasi-identifiers
//   FEDTAX           — confidential candidate, QI correlation ~ 0.52
//   FICA             — confidential candidate, QI correlation ~ 0.92
// Roles: TAXINC/POTHVAL are kQuasiIdentifier; FEDTAX/FICA are kOther until
// one of them is promoted by MakeMcdDataset / MakeHcdDataset.
Dataset MakeCensusLike(const CensusLikeOptions& options = {});

// Moderately correlated data set: FEDTAX confidential (paper Sec. 8.1).
Dataset MakeMcdDataset(const CensusLikeOptions& options = {});

// Highly correlated data set: FICA confidential (paper Sec. 8.1).
Dataset MakeHcdDataset(const CensusLikeOptions& options = {});

struct PatientDischargeOptions {
  // Paper: 23,435 records after removing missing values. Algorithm 2 has
  // cubic cost, so benches typically pass a smaller n; the generator
  // defaults to the paper's size.
  size_t num_records = 23435;
  uint64_t seed = 11;
};

// Seven numeric quasi-identifiers (age, zip region, admission day, length
// of stay, severity, sex, payer) plus one confidential attribute (charge)
// with aggregate QI correlation ~ 0.13.
Dataset MakePatientDischargeLike(const PatientDischargeOptions& options = {});

// Uniform-[0,1] quasi-identifiers plus one uniform confidential attribute;
// a neutral workload for tests and micro-benchmarks. Reads every row of
// MakeUniformSource (record_source.h), which draws them.
Dataset MakeUniformDataset(size_t num_records, size_t num_quasi_identifiers,
                           uint64_t seed);

struct AdultLikeOptions {
  size_t num_records = 2000;
  uint64_t seed = 23;
};

// Mixed-type microdata in the style of the UCI Adult census: numeric,
// ordinal and nominal quasi-identifiers plus a numeric confidential
// attribute. Exercises the full attribute taxonomy (median/mode
// aggregation, category labels in CSV I/O):
//   AGE (numeric QI), EDUCATION (ordinal QI, 5 levels),
//   OCCUPATION (nominal QI, 6 categories), HOURS (numeric QI),
//   INCOME (numeric confidential).
Dataset MakeAdultLike(const AdultLikeOptions& options = {});

// Gaussian mixture in QI space (distinct modes make microaggregation
// clusters meaningful) with a confidential attribute correlated to the
// mode. Used to exercise outlier/cluster behaviour in tests. Reads every
// row of MakeClusteredSource (record_source.h), which draws them.
Dataset MakeClusteredDataset(size_t num_records, size_t num_quasi_identifiers,
                             size_t num_modes, uint64_t seed);

}  // namespace tcm

#endif  // TCM_DATA_GENERATOR_H_
