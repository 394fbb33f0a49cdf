//! The experiment suite: `suite [FIGURE...]` runs the named registered
//! figure specs (all of them when none is named) against one shared
//! candidate-discovery cache and fails on any declared assertion.
//! `--quick` is the CI smoke configuration (< 60 s); the final stderr
//! summary logs the cache effectiveness.

fn main() {
    netsmith_exp::cli::run_suite(netsmith_bench::figures::ALL);
}
