// Table 2 of the paper: actual microaggregation level (minimum / average
// cluster size) of Algorithm 2 — k-anonymity-first t-closeness-aware
// microaggregation (with the Algorithm 1 merge fallback) — over the k x t
// grid for MCD and HCD. Expected shape: sizes much closer to k than
// Table 1; mergers only for the strictest t (0.01-0.05); HCD needs larger
// average clusters than MCD.

#include "bench/table_sizes_common.h"

int main() {
  tcm_bench::RunSizesTable(
      "Table 2: Algorithm 2 (k-anonymity-first) cluster sizes min/avg, "
      "MCD & HCD (n=1080)",
      "kanon_first");
  return 0;
}
