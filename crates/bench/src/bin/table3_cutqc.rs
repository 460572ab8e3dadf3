//! Regenerates the corresponding table/figure; see `fq_bench::figures`.
#![forbid(unsafe_code)]

fn main() {
    fq_bench::figures::table3_cutqc();
}
