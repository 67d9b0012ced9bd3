//! Regenerates Table 1 of the paper: which architectural components each
//! representative use case exercises (experiment E19).
//!
//! Each §5 use case runs (scaled down) against the platform, its runner
//! declaring beside each step the components the step is built on — the
//! same run `tests/paper_claims.rs` checks cell by cell as claim E19 — and
//! the matrix is printed in the paper's layout.
//!
//! Run with: `cargo run --example table1`

use rtdi::core::platform::RealtimePlatform;
use rtdi_bench::claims::usecases::run_table1_use_cases;

fn main() {
    let platform = RealtimePlatform::new();
    let usage = run_table1_use_cases(&platform).expect("the four use cases run");
    println!("Table 1 — components used by the example use cases:\n");
    println!("{}", usage.render_table());
}
