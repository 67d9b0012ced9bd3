//! The paper's claims, gated: every experiment of DESIGN.md §3 runs at one
//! fixed size, every shape predicate must hold, and the table the run
//! prints must be the one recorded in EXPERIMENTS.md.
//!
//! One `#[test]`: the claims count allocations on a process-wide counter,
//! so they need the process to themselves. Wall times are
//! printed as `CLAIMS_TIMING` lines and never asserted; read them from
//! `cargo test --release --test paper_claims -- --nocapture`.

use rtdi_bench::claims::{experiment_number, run_all};

const BEGIN: &str = "<!-- CLAIMS:BEGIN -->\n";
const END: &str = "<!-- CLAIMS:END -->";

#[test]
fn every_paper_claim_holds_and_matches_the_recorded_table() {
    let report = run_all().expect("every claim fixture builds and runs");
    let table = report.table();
    for line in table.lines() {
        println!("CLAIMS {line}");
    }
    for t in &report.timings {
        println!(
            "CLAIMS_TIMING {} {}: {:.3} ms",
            t.id,
            t.what,
            t.elapsed.as_secs_f64() * 1e3
        );
    }

    let broken: Vec<&str> = report
        .claims
        .iter()
        .filter(|c| !c.holds)
        .map(|c| c.id)
        .collect();
    assert!(
        broken.is_empty(),
        "shape predicates that do not hold: {broken:?}"
    );

    // every `| E<n> ` row of DESIGN.md §3 is asserted by at least one claim
    let root = env!("CARGO_MANIFEST_DIR");
    let design = std::fs::read_to_string(format!("{root}/DESIGN.md")).expect("DESIGN.md");
    let indexed: Vec<u32> = design
        .lines()
        .filter_map(|l| l.strip_prefix("| E")?.split_once(' ')?.0.parse().ok())
        .collect();
    assert!(
        indexed.len() >= 30,
        "DESIGN.md §3 lists E1-E30, found {indexed:?}"
    );
    for n in indexed {
        let claimed = report.claims.iter().any(|c| experiment_number(c.id) == n);
        assert!(claimed, "DESIGN.md §3 lists E{n} and no claim has that id");
    }

    let recorded =
        std::fs::read_to_string(format!("{root}/EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let block = recorded
        .split_once(BEGIN)
        .and_then(|(_, rest)| rest.split_once(END))
        .map(|(block, _)| block);
    assert!(
        block == Some(table.as_str()),
        "the CLAIMS block of EXPERIMENTS.md is not what this run measured; replace it with:\n\
         {BEGIN}{table}{END}"
    );
}
