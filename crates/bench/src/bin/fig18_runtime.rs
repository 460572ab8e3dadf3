//! Regenerates the corresponding figure; see `fq_bench::scale`.
#![forbid(unsafe_code)]

fn main() {
    fq_bench::scale::fig18_runtime();
}
