//! The incremental explore on real control graphs: tours over the PP
//! designs the workloads tour (`pp-micro`, `pp-standard` and a
//! two-way LRU spill design) must be byte-identical to the full-BFS
//! oracle's, with and without trace limits.

mod oracle;

use archval_exec::StepProgram;
use archval_fsm::{enumerate_with, EnumConfig};
use archval_pp::testkit::named_model;
use archval_tour::{generate_tours, TourConfig};
use oracle::{comparable, reference_tours};

fn check(design: &str) {
    let (_, model) = named_model(design);
    let program = StepProgram::compile(&model);
    let config = EnumConfig { batch_lanes: 256, ..EnumConfig::default() };
    let enumd = enumerate_with(&model, &config, &program).unwrap();
    for limit in [None, Some(10_000), Some(64)] {
        let config = TourConfig { instruction_limit: limit };
        let fast = generate_tours(&enumd.graph, &config);
        let (traces, stats) = reference_tours(&enumd.graph, &config, |_, _, _| 1);
        assert!(fast.covers_all_arcs(&enumd.graph), "{design} {limit:?}: arcs left uncovered");
        assert!(fast.traces() == &traces[..], "{design} {limit:?}: traces differ");
        assert_eq!(comparable(fast.stats()), comparable(&stats), "{design} {limit:?}");
        assert!(
            fast.stats().explore_states_visited <= stats.explore_states_visited,
            "{design} {limit:?}: the pruned explore visited more states"
        );
    }
}

#[test]
fn pp_micro_tours_are_identical() {
    check("pp-micro");
}

#[test]
fn pp_standard_tours_are_identical() {
    check("pp-standard");
}

#[test]
fn two_way_lru_spill_tours_are_identical() {
    check("beats=2,ways=2,policy=lru,spill=2");
}
