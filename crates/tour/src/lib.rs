//! Transition-tour generation over enumerated state graphs.
//!
//! Implements step 3 of the ISCA 1995 methodology: given the complete state
//! graph of the control logic, generate a set of *partial transition tours*
//! — traces starting from the reset state whose union traverses every arc at
//! least once — using the greedy depth-first algorithm of the paper's
//! Figure 3.3, with a breadth-first *explore* phase that hops to the nearest
//! untraversed arc, restarts from reset when none is reachable, and an
//! optional per-trace instruction limit (10,000 in the paper's Table 3.3).
//!
//! The general problem of covering all arcs of a non-symmetric
//! strongly-connected graph with minimal traversals is the Chinese Postman
//! Problem ([EJ72] in the paper); [`euler`] provides that optimal baseline
//! for ablation comparisons on strongly-connected graphs.
//!
//! # Example
//!
//! ```
//! use archval_fsm::{ModelBuilder, enumerate, EnumConfig};
//! use archval_tour::{generate_tours, TourConfig};
//!
//! let mut b = ModelBuilder::new("bit");
//! let set = b.choice("set", 2);
//! let v = b.state_var("v", 2, 0);
//! b.set_next(v, b.choice_expr(set));
//! let model = b.build()?;
//! let enumd = enumerate(&model, &EnumConfig::default())?;
//!
//! let tours = generate_tours(&enumd.graph, &TourConfig::default());
//! assert!(tours.covers_all_arcs(&enumd.graph));
//! # Ok::<(), archval_fsm::Error>(())
//! ```

pub mod coverage;
mod distance;
pub mod euler;
pub mod generate;
pub mod stats;

pub use archval_fsm::graph::EdgeIx;
pub use coverage::ArcCoverage;
pub use euler::{eulerize, hierholzer_tour, EulerAnalysis};
pub use generate::{
    generate_tours, generate_tours_with, TourConfig, TourSet, Trace, TraversedEdge,
};
pub use stats::TourStats;
