// Table 3 of the paper: actual microaggregation level (minimum / average
// cluster size) of Algorithm 3 — t-closeness-first microaggregation —
// over the k x t grid for MCD and HCD. Expected shape: min == avg
// everywhere (perfectly balanced clusters, n=1080 divisible by the
// effective k), sizes equal to max{k, k*(t)} (49 at t=0.01 for small k),
// and identical values for MCD and HCD.

#include "bench/table_sizes_common.h"

int main() {
  tcm_bench::RunSizesTable(
      "Table 3: Algorithm 3 (t-closeness-first) cluster sizes min/avg, "
      "MCD & HCD (n=1080)",
      "tclose_first");
  return 0;
}
