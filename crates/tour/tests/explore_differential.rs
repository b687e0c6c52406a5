//! Differential suite for the incremental explore: on random graphs the
//! generator must emit exactly the traces and statistics of the oracle in
//! `oracle/`, which runs one full BFS per DFS dead end.
//!
//! The graphs mix the shapes that stress the distance field: states that
//! reset cannot reach, closed "trap" regions the DFS walks into and
//! exhausts mid-run (after which the states that led there have no
//! untraversed arc within reach), self-loops, and parallel arcs that only
//! the `AllLabels` policy keeps.

mod oracle;

use proptest::prelude::*;

use archval_fsm::graph::{EdgePolicy, GraphBuilder, StateGraph, StateId};
use archval_tour::{generate_tours_with, TourConfig};
use oracle::{comparable, reference_tours};

/// States `[0, reach)` hang off reset on a random spine; states
/// `[trap, n)` form a region no arc leaves; the remaining arcs are random
/// (self-loops and repeated source/destination pairs included).
fn arb_graph() -> impl Strategy<Value = StateGraph> {
    (
        (1u32..40, 0u32..40, 0u32..48),
        proptest::collection::vec((0u32..40, 0u32..40, 0u64..4), 0..120),
        any::<u64>(),
        proptest::bool::ANY,
    )
        .prop_map(|((n, reach, trap), arcs, salt, all_labels)| {
            let reach = 1 + reach % n;
            let policy = if all_labels { EdgePolicy::AllLabels } else { EdgePolicy::FirstLabel };
            let mut b = GraphBuilder::new(policy);
            b.ensure_state(StateId(n - 1));
            for i in 1..reach {
                let j = (salt.wrapping_mul(u64::from(i) + 1) % u64::from(i)) as u32;
                b.add_edge(StateId(j), StateId(i), 0);
            }
            for (a, d, label) in arcs {
                let (a, mut d) = (a % n, d % n);
                if a >= trap && d < trap {
                    d = trap + d % (n - trap);
                }
                b.add_edge(StateId(a), StateId(d), label);
            }
            b.finish().unwrap().0
        })
}

/// Checks traces and statistics against the oracle for one configuration.
fn agrees(
    g: &StateGraph,
    config: &TourConfig,
    cost: impl Fn(StateId, u64, StateId) -> u64 + Copy,
) -> Result<(), TestCaseError> {
    let fast = generate_tours_with(g, config, cost);
    let (traces, stats) = reference_tours(g, config, cost);
    prop_assert_eq!(fast.traces(), &traces[..], "traces under {config:?}");
    prop_assert_eq!(comparable(fast.stats()), comparable(&stats), "stats under {config:?}");
    prop_assert!(fast.stats().explore_states_visited <= stats.explore_states_visited);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn incremental_explore_matches_full_bfs(g in arb_graph(), limit in 1u64..30) {
        for config in [TourConfig::default(), TourConfig { instruction_limit: Some(limit) }] {
            agrees(&g, &config, |_, _, _| 1)?;
            // a cost model with free arcs, so limits fall at uneven points
            agrees(&g, &config, |s, label, d| (u64::from(s.0) + label + u64::from(d.0)) % 3)?;
        }
    }
}
