#include "data/generator.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.h"
#include "common/rng.h"
#include "data/record_source.h"

namespace tcm {
namespace {

// Loading of each quasi-identifier on a shared latent factor; the QI
// pairwise correlation is the square of this. Kept moderate so the QI
// space is genuinely two-dimensional — with near-collinear QIs every
// QI-neighbourhood maps to a narrow confidential slice and the merge
// algorithm degenerates, which real census data does not exhibit.
constexpr double kQiLoading = 0.6;

Dataset FinishCensus(const std::vector<std::vector<double>>& cols) {
  auto made = DatasetFromColumns(
      {"TAXINC", "POTHVAL", "FEDTAX", "FICA"}, cols,
      {AttributeRole::kQuasiIdentifier, AttributeRole::kQuasiIdentifier,
       AttributeRole::kOther, AttributeRole::kOther});
  TCM_CHECK(made.ok()) << made.status().ToString();
  return std::move(made).value();
}

// Reads every row of a synthetic source: the uniform and clustered
// generators draw their rows in one place, their record sources.
Dataset Drain(std::unique_ptr<SyntheticSource> source) {
  Dataset data(source->schema());
  data.Reserve(source->num_records());
  Result<size_t> read = source->ReadInto(&data, source->num_records());
  TCM_CHECK(read.ok()) << read.status().ToString();
  return data;
}

}  // namespace

Dataset MakeCensusLike(const CensusLikeOptions& options) {
  TCM_CHECK_GT(options.num_records, 0u);
  Rng rng(options.seed);
  const size_t n = options.num_records;
  // The confidential attributes load directly on the normalized QI span
  // u = (z1 + z2) / sqrt(2 + 2 rho12): conf = R*u + sqrt(1-R^2)*noise has
  // multiple correlation exactly R with the QI block, for any QI
  // collinearity. Paper targets: R = 0.52 (FEDTAX/MCD), 0.92 (FICA/HCD).
  constexpr double kRMcd = 0.52;
  // Raw (pre-cap) loading for FICA; the cap below lowers the measured
  // multiple correlation to roughly the paper's 0.92.
  constexpr double kRFicaRaw = 0.97;
  const double rho12 = kQiLoading * kQiLoading;
  const double span_norm = std::sqrt(2.0 + 2.0 * rho12);
  const double resid = std::sqrt(1.0 - kQiLoading * kQiLoading);

  std::vector<double> taxinc(n), pothval(n), fedtax(n), fica(n);
  for (size_t i = 0; i < n; ++i) {
    double factor = rng.NextGaussian();
    double z_tax = kQiLoading * factor + resid * rng.NextGaussian();
    double z_oth = kQiLoading * factor + resid * rng.NextGaussian();
    double span = (z_tax + z_oth) / span_norm;  // unit variance
    double z_fed =
        kRMcd * span + std::sqrt(1.0 - kRMcd * kRMcd) * rng.NextGaussian();
    double z_fic =
        kRFicaRaw * span +
        std::sqrt(1.0 - kRFicaRaw * kRFicaRaw) * rng.NextGaussian();
    // Affine maps to income-like magnitudes; affine preserves correlations.
    taxinc[i] = 43000.0 + 21000.0 * z_tax;
    pothval[i] = 18000.0 + 9000.0 * z_oth;
    fedtax[i] = 7800.0 + 3900.0 * z_fed;
    // FICA is a capped payroll percentage: many subjects sit exactly at
    // the contribution ceiling and amounts are quantized. The cap + the
    // rounding pull the raw correlation down to the paper's 0.92 and
    // produce the heavy ties real payroll data exhibits.
    fica[i] = std::min(4650.0, 3400.0 + 1500.0 * z_fic);
    fica[i] = std::round(fica[i] / 25.0) * 25.0;
  }
  return FinishCensus({taxinc, pothval, fedtax, fica});
}

Dataset MakeMcdDataset(const CensusLikeOptions& options) {
  Dataset census = MakeCensusLike(options);
  auto schema = census.schema().WithRole("FEDTAX", AttributeRole::kConfidential);
  TCM_CHECK(schema.ok());
  TCM_CHECK(census.ReplaceSchema(std::move(schema).value()).ok());
  return census;
}

Dataset MakeHcdDataset(const CensusLikeOptions& options) {
  Dataset census = MakeCensusLike(options);
  auto schema = census.schema().WithRole("FICA", AttributeRole::kConfidential);
  TCM_CHECK(schema.ok());
  TCM_CHECK(census.ReplaceSchema(std::move(schema).value()).ok());
  return census;
}

Dataset MakePatientDischargeLike(const PatientDischargeOptions& options) {
  TCM_CHECK_GT(options.num_records, 0u);
  Rng rng(options.seed);
  const size_t n = options.num_records;

  std::vector<double> age(n), zip(n), admission(n), los(n), severity(n),
      sex(n), payer(n), charge(n);
  // Target multiple correlation between the QI block and charge. Only
  // length-of-stay and severity load on the charge's latent driver; the
  // other five QIs are independent noise, which matches the paper's very
  // weak overall dependence (0.129).
  constexpr double kTargetR = 0.129;
  for (size_t i = 0; i < n; ++i) {
    double z_los = rng.NextGaussian();
    double z_sev = rng.NextGaussian();
    // Driver shared between (los, sev) and charge.
    double driver = (z_los + z_sev) / std::sqrt(2.0);
    double z_charge =
        kTargetR * driver + std::sqrt(1.0 - kTargetR * kTargetR) * rng.NextGaussian();

    age[i] = std::clamp(std::round(41.0 + 23.0 * rng.NextGaussian()), 0.0, 99.0);
    zip[i] = static_cast<double>(rng.NextBounded(50));
    admission[i] = static_cast<double>(1 + rng.NextBounded(365));
    los[i] = std::max(1.0, std::round(4.0 + 2.2 * z_los));
    severity[i] = std::clamp(std::round(3.0 + 1.1 * z_sev), 1.0, 5.0);
    sex[i] = static_cast<double>(rng.NextBounded(2));
    payer[i] = static_cast<double>(rng.NextBounded(6));
    charge[i] = std::max(100.0, 21500.0 + 9400.0 * z_charge);
  }
  auto made = DatasetFromColumns(
      {"AGE", "ZIP", "ADMISSION_DAY", "LENGTH_OF_STAY", "SEVERITY", "SEX",
       "PAYER", "CHARGE"},
      {age, zip, admission, los, severity, sex, payer, charge},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kQuasiIdentifier,
       AttributeRole::kQuasiIdentifier, AttributeRole::kQuasiIdentifier,
       AttributeRole::kQuasiIdentifier, AttributeRole::kQuasiIdentifier,
       AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  TCM_CHECK(made.ok()) << made.status().ToString();
  return std::move(made).value();
}

Dataset MakeUniformDataset(size_t num_records, size_t num_quasi_identifiers,
                           uint64_t seed) {
  return Drain(MakeUniformSource(num_records, num_quasi_identifiers, seed));
}

Dataset MakeAdultLike(const AdultLikeOptions& options) {
  TCM_CHECK_GT(options.num_records, 0u);
  Rng rng(options.seed);
  Schema schema({
      Attribute{"AGE", AttributeType::kNumeric,
                AttributeRole::kQuasiIdentifier, {}},
      Attribute{"EDUCATION", AttributeType::kOrdinal,
                AttributeRole::kQuasiIdentifier,
                {"none", "primary", "secondary", "bachelor", "graduate"}},
      Attribute{"OCCUPATION", AttributeType::kNominal,
                AttributeRole::kQuasiIdentifier,
                {"admin", "craft", "sales", "service", "tech", "transport"}},
      Attribute{"HOURS", AttributeType::kNumeric,
                AttributeRole::kQuasiIdentifier, {}},
      Attribute{"INCOME", AttributeType::kNumeric,
                AttributeRole::kConfidential, {}},
  });
  Dataset data(schema);
  for (size_t i = 0; i < options.num_records; ++i) {
    double age = std::clamp(
        std::round(38.0 + 13.0 * rng.NextGaussian()), 17.0, 90.0);
    // Education skews upward with age up to a point, plus noise.
    int32_t education = static_cast<int32_t>(std::clamp(
        std::round(2.0 + 0.02 * (age - 38.0) + 1.1 * rng.NextGaussian()),
        0.0, 4.0));
    int32_t occupation = static_cast<int32_t>(rng.NextBounded(6));
    double hours = std::clamp(
        std::round(40.0 + 9.0 * rng.NextGaussian()), 5.0, 90.0);
    // Income driven by education and hours with heavy noise.
    double income =
        22000.0 + 9000.0 * education + 450.0 * (hours - 40.0) +
        12000.0 * rng.NextGaussian();
    Record record = {Value::Numeric(age), Value::Categorical(education),
                     Value::Categorical(occupation), Value::Numeric(hours),
                     Value::Numeric(income)};
    TCM_CHECK(data.Append(std::move(record)).ok());
  }
  return data;
}

Dataset MakeClusteredDataset(size_t num_records, size_t num_quasi_identifiers,
                             size_t num_modes, uint64_t seed) {
  return Drain(MakeClusteredSource(num_records, num_quasi_identifiers,
                                   num_modes, seed));
}

}  // namespace tcm
