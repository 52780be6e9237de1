// Table 1 of the paper: actual microaggregation level (minimum / average
// cluster size) of Algorithm 1 — standard microaggregation followed by
// cluster merging — over the k x t grid for the MCD and HCD data sets.
// Expected shape: sizes blow up as t decreases (single 1080-record cluster
// around t = 0.01-0.05) and as k grows; min and avg diverge widely.

#include "bench/table_sizes_common.h"

int main() {
  tcm_bench::RunSizesTable(
      "Table 1: Algorithm 1 (microaggregation + merging) cluster sizes "
      "min/avg, MCD & HCD (n=1080)",
      "merge");
  return 0;
}
