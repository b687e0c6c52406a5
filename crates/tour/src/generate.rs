//! The tour-generation algorithm of the paper's Figure 3.3.
//!
//! A single Euler-style tour is neither possible (the PP graph is not
//! strongly connected: many arcs leave the reset state and never return) nor
//! desirable (concurrent simulation and short rerun-to-bug times favour many
//! traces that all start from reset). The generator therefore produces a
//! *set* of traces whose union covers every arc:
//!
//! 1. **DFS phase** — greedily take any untraversed out-edge of the current
//!    state, marking it traversed, until the current state has none left.
//! 2. **BFS explore phase** — breadth-first search (not adding edges to
//!    the tour) for the nearest state with an untraversed out-edge; append
//!    the shortest path to the trace (re-traversing edges is cheap in
//!    simulation, backtracking is not) and resume the DFS. The search keeps
//!    to arcs that lead one step closer to such a state, read off an
//!    incrementally maintained distance field (`distance.rs`), and finds
//!    the same target and path a search over every arc would.
//! 3. When no untraversed edge is reachable, or the per-trace instruction
//!    limit is hit, close the trace and start a new one from reset.
//!
//! The generator walks the shared CSR [`StateGraph`] directly — edges are
//! addressed by dense [`EdgeIx`] indices into its flat arrays, with no
//! per-tour recompilation.

use std::time::Instant;

use archval_fsm::graph::{EdgeIx, StateGraph, StateId};
use archval_fsm::EdgeLabel;

use crate::distance::{DistanceField, UNREACHABLE};
use crate::stats::TourStats;

/// Configuration for [`generate_tours`].
#[derive(Debug, Clone, Default)]
pub struct TourConfig {
    /// Maximum instructions per trace; `None` reproduces the paper's
    /// "no limit" column of Table 3.3, `Some(10_000)` its limited column.
    pub instruction_limit: Option<u64>,
}

impl TourConfig {
    /// The paper's Table 3.3 trace limit of 10,000 instructions.
    pub fn with_paper_limit() -> Self {
        TourConfig { instruction_limit: Some(10_000) }
    }
}

/// One fully resolved edge traversal of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraversedEdge {
    /// Source state.
    pub src: StateId,
    /// Destination state.
    pub dst: StateId,
    /// The choice combination labelling the edge.
    pub label: EdgeLabel,
}

/// A single simulation trace: a path starting at the reset state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Dense edge indices, in traversal order.
    pub steps: Vec<EdgeIx>,
    /// Instructions this trace consumes under the generator's cost model.
    pub instructions: u64,
    /// True if this trace was cut short by the instruction limit.
    pub hit_limit: bool,
}

impl Trace {
    /// Number of edge traversals in the trace.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace contains no traversals.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// The complete output of tour generation.
#[derive(Debug)]
pub struct TourSet {
    /// Shares storage with the graph the caller passed in (CSR arrays are
    /// reference-counted), so holding a `TourSet` costs no graph copy.
    graph: StateGraph,
    traces: Vec<Trace>,
    covered: Vec<bool>,
    stats: TourStats,
}

impl TourSet {
    /// The generated traces.
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// The graph the tours were generated over.
    pub fn graph(&self) -> &StateGraph {
        &self.graph
    }

    /// Table 3.3-shaped statistics.
    pub fn stats(&self) -> &TourStats {
        &self.stats
    }

    /// Resolves a trace into `(src, dst, label)` traversals.
    pub fn resolve<'a>(&'a self, trace: &'a Trace) -> impl Iterator<Item = TraversedEdge> + 'a {
        trace.steps.iter().map(move |&e| TraversedEdge {
            src: self.graph.edge_src(e),
            dst: self.graph.edge_dst(e),
            label: self.graph.edge_label(e),
        })
    }

    /// Whether every arc of `graph` is traversed by some trace.
    pub fn covers_all_arcs(&self, graph: &StateGraph) -> bool {
        debug_assert_eq!(graph.edge_count(), self.graph.edge_count());
        self.covered.iter().all(|&c| c)
    }

    /// Number of distinct arcs covered.
    pub fn covered_arc_count(&self) -> usize {
        self.covered.iter().filter(|&&c| c).count()
    }

    /// Checks structural validity: every trace starts at `reset` and each
    /// step's source is the previous step's destination.
    pub fn validate_adjacency(&self, reset: StateId) -> bool {
        self.traces.iter().all(|t| {
            let mut at = reset;
            t.steps.iter().all(|&e| {
                if self.graph.edge_src(e) != at {
                    return false;
                }
                at = self.graph.edge_dst(e);
                true
            })
        })
    }
}

/// Generates tours with the default cost model of one instruction per edge.
///
/// See [`generate_tours_with`] for a custom cost model (the PP model charges
/// zero instructions for stall-cycle edges, which is how the paper's 21.2 M
/// edge traversals amount to only 8.5 M instructions).
pub fn generate_tours(graph: &StateGraph, config: &TourConfig) -> TourSet {
    generate_tours_with(graph, config, |_, _, _| 1)
}

/// Generates tours, charging `instr_cost(src, label, dst)` instructions for
/// each traversal of an edge.
///
/// Traces always start from state 0 (reset). Arcs unreachable from reset —
/// impossible in an enumerated graph, possible in a hand-built one — are
/// left uncovered and reported through
/// [`TourSet::covered_arc_count`].
pub fn generate_tours_with(
    graph: &StateGraph,
    config: &TourConfig,
    instr_cost: impl Fn(StateId, EdgeLabel, StateId) -> u64,
) -> TourSet {
    let start = Instant::now();
    let n = graph.state_count();
    let m = graph.edge_count();

    let mut covered = vec![false; m];
    // per-state count of untraversed out-edges
    let mut untraversed_out: Vec<u32> =
        (0..n).map(|s| graph.out_degree(StateId(s as u32)) as u32).collect();
    // per-state scan cursor for the greedy DFS edge pick
    let mut cursor: Vec<u32> = (0..n).map(|s| graph.out_range(StateId(s as u32)).start).collect();
    let mut remaining = m;

    // distance from every state to the nearest untraversed arc, brought up
    // to date with the states that ran out of untraversed arcs before each
    // explore
    let mut field = DistanceField::new(graph, |s| untraversed_out[s.0 as usize] > 0);
    let mut retired: Vec<u32> = Vec::new();

    // BFS scratch with generation stamps so it needs no per-call clearing
    let mut bfs_gen = vec![0u32; n];
    let mut bfs_parent_edge = vec![EdgeIx(0); n];
    let mut bfs_queue: Vec<u32> = Vec::new();
    let mut generation = 0u32;

    let mut traces: Vec<Trace> = Vec::new();
    let mut total_traversals: u64 = 0;
    let mut total_instructions: u64 = 0;
    let mut explores: u64 = 0;
    let mut explore_states_visited: u64 = 0;

    let reset = StateId(0);

    let take = |src: StateId,
                e: EdgeIx,
                trace: &mut Trace,
                covered: &mut Vec<bool>,
                untraversed_out: &mut Vec<u32>,
                retired: &mut Vec<u32>,
                remaining: &mut usize,
                fresh_in_trace: &mut usize| {
        let dst = graph.edge_dst(e);
        if !covered[e.0 as usize] {
            covered[e.0 as usize] = true;
            untraversed_out[src.0 as usize] -= 1;
            if untraversed_out[src.0 as usize] == 0 {
                retired.push(src.0);
            }
            *remaining -= 1;
            *fresh_in_trace += 1;
        }
        trace.steps.push(e);
        trace.instructions += instr_cost(src, graph.edge_label(e), dst);
        dst
    };

    'outer: while remaining > 0 {
        let mut trace = Trace::default();
        let mut fresh_in_trace = 0usize;
        let mut state = reset;
        loop {
            // --- DFS phase: greedily take untraversed out-edges ---
            loop {
                let range = graph.out_range(state);
                let mut cur = cursor[state.0 as usize].max(range.start);
                while cur < range.end && covered[cur as usize] {
                    cur += 1;
                }
                cursor[state.0 as usize] = cur;
                if cur >= range.end {
                    // cursor exhausted; the state may still have untraversed
                    // edges marked through path-appends behind the cursor —
                    // untraversed_out is authoritative
                    if untraversed_out[state.0 as usize] == 0 {
                        break;
                    }
                    // rescan from the start once
                    let mut found = None;
                    for e in range.clone() {
                        if !covered[e as usize] {
                            found = Some(e);
                            break;
                        }
                    }
                    match found {
                        Some(e) => {
                            state = take(
                                state,
                                EdgeIx(e),
                                &mut trace,
                                &mut covered,
                                &mut untraversed_out,
                                &mut retired,
                                &mut remaining,
                                &mut fresh_in_trace,
                            );
                        }
                        None => break,
                    }
                } else {
                    state = take(
                        state,
                        EdgeIx(cur),
                        &mut trace,
                        &mut covered,
                        &mut untraversed_out,
                        &mut retired,
                        &mut remaining,
                        &mut fresh_in_trace,
                    );
                }
                // the limit may only close a trace that made progress,
                // otherwise a long re-traversal prefix from reset would
                // restart forever without covering anything new
                if let Some(limit) = config.instruction_limit {
                    if trace.instructions >= limit && fresh_in_trace > 0 {
                        trace.hit_limit = true;
                        total_traversals += trace.len() as u64;
                        total_instructions += trace.instructions;
                        traces.push(trace);
                        continue 'outer;
                    }
                }
            }
            if remaining == 0 {
                break;
            }

            // --- explore phase: shortest path to the nearest state with an
            // untraversed out-edge ---
            explores += 1;
            field.retire(graph, &retired);
            retired.clear();
            let to_go = field.dist(state);
            if to_go == UNREACHABLE {
                break; // nothing reachable: close this trace
            }
            assert_ne!(to_go, 0, "dead end {state:?} is on the frontier");
            // breadth-first, but only along arcs one step closer to the
            // frontier: the on-path states come off the queue in the same
            // order, with the same parent arcs, as in a search over every
            // arc, so the target and the path are the same
            generation += 1;
            bfs_queue.clear();
            bfs_gen[state.0 as usize] = generation;
            bfs_queue.push(state.0);
            let mut head = 0usize;
            let mut target = state;
            while head < bfs_queue.len() {
                let s = StateId(bfs_queue[head]);
                head += 1;
                let ds = field.dist(s);
                if ds == 0 {
                    target = s;
                    break;
                }
                for e in graph.out_range(s) {
                    let d = graph.edge_dst(EdgeIx(e));
                    if field.dist(d) == ds - 1 && bfs_gen[d.0 as usize] != generation {
                        bfs_gen[d.0 as usize] = generation;
                        bfs_parent_edge[d.0 as usize] = EdgeIx(e);
                        bfs_queue.push(d.0);
                    }
                }
            }
            explore_states_visited += head as u64;
            // an exact field always leads to the frontier; a stale one would
            // send the DFS back to a dead end forever
            assert_eq!(field.dist(target), 0, "no frontier state {to_go} steps from {state:?}");

            // reconstruct the shortest path state -> target
            let mut path = Vec::with_capacity(to_go as usize);
            let mut at = target;
            while at != state {
                let pe = bfs_parent_edge[at.0 as usize];
                path.push(pe);
                at = graph.edge_src(pe);
            }
            path.reverse();
            for e in path {
                state = take(
                    state,
                    e,
                    &mut trace,
                    &mut covered,
                    &mut untraversed_out,
                    &mut retired,
                    &mut remaining,
                    &mut fresh_in_trace,
                );
                if let Some(limit) = config.instruction_limit {
                    if trace.instructions >= limit && fresh_in_trace > 0 {
                        trace.hit_limit = true;
                        total_traversals += trace.len() as u64;
                        total_instructions += trace.instructions;
                        traces.push(trace);
                        continue 'outer;
                    }
                }
            }
        }
        let made_progress = fresh_in_trace > 0;
        if made_progress {
            total_traversals += trace.len() as u64;
            total_instructions += trace.instructions;
            traces.push(trace);
        }
        if !made_progress {
            // remaining arcs are unreachable from reset (hand-built graph)
            break;
        }
    }

    let longest = traces.iter().map(Trace::len).max().unwrap_or(0);
    let terminated_by_limit = traces.iter().filter(|t| t.hit_limit).count();
    let in_deg = graph.in_degrees();
    let min_traces_lower_bound =
        if n > 0 && in_deg[0] == 0 { graph.out_degree(reset) } else { usize::from(n > 0) };
    let stats = TourStats {
        traces: traces.len(),
        total_edge_traversals: total_traversals,
        total_instructions,
        generation_time: start.elapsed(),
        longest_trace_edges: longest,
        traces_terminated_by_limit: terminated_by_limit,
        arcs_total: m,
        arcs_covered: covered.iter().filter(|&&c| c).count(),
        min_traces_lower_bound,
        explores,
        explore_states_visited,
    };

    TourSet { graph: graph.clone(), traces, covered, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archval_fsm::graph::{EdgePolicy, GraphBuilder};

    fn graph(edges: &[(u32, u32)]) -> StateGraph {
        let mut b = GraphBuilder::new(EdgePolicy::AllLabels);
        for (i, &(s, d)) in edges.iter().enumerate() {
            b.add_edge(StateId(s), StateId(d), i as u64);
        }
        b.finish().unwrap().0
    }

    #[test]
    fn single_cycle_is_one_trace() {
        let g = graph(&[(0, 1), (1, 2), (2, 0)]);
        let t = generate_tours(&g, &TourConfig::default());
        assert_eq!(t.traces().len(), 1);
        assert!(t.covers_all_arcs(&g));
        assert!(t.validate_adjacency(StateId(0)));
        assert_eq!(t.stats().total_edge_traversals, 3);
    }

    #[test]
    fn diamond_requires_retraversal() {
        // 0->1, 0->2, 1->3, 2->3, 3->0: covering both branches needs to
        // re-traverse some edges
        let g = graph(&[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]);
        let t = generate_tours(&g, &TourConfig::default());
        assert!(t.covers_all_arcs(&g));
        assert!(t.validate_adjacency(StateId(0)));
        assert!(t.stats().total_edge_traversals >= 5);
        assert_eq!(t.stats().arcs_covered, 5);
    }

    #[test]
    fn dead_end_forces_multiple_traces() {
        // two arcs out of reset that never come back: 0->1, 0->2 with
        // self-loops at 1 and 2
        let g = graph(&[(0, 1), (0, 2), (1, 1), (2, 2)]);
        let t = generate_tours(&g, &TourConfig::default());
        assert!(t.covers_all_arcs(&g));
        assert_eq!(t.traces().len(), 2, "cannot combine reset-only arcs");
        assert_eq!(t.stats().min_traces_lower_bound, 2);
    }

    #[test]
    fn instruction_limit_splits_traces() {
        // long chain with a return edge: unlimited covers in 1 trace
        let mut edges = Vec::new();
        for i in 0..50 {
            edges.push((i, i + 1));
        }
        edges.push((50, 0));
        let g = graph(&edges);
        let unlimited = generate_tours(&g, &TourConfig::default());
        assert_eq!(unlimited.traces().len(), 1);
        let limited = generate_tours(&g, &TourConfig { instruction_limit: Some(10) });
        assert!(limited.covers_all_arcs(&g));
        assert!(limited.traces().len() > 1);
        assert!(limited
            .traces()
            .iter()
            .all(|t| t.instructions <= 10 || t.len() as u64 == t.instructions));
        assert!(limited.stats().traces_terminated_by_limit >= 1);
    }

    #[test]
    fn limit_overhead_is_small_on_shallow_graphs() {
        // reset fans out to 20 three-state cycles: every arc is within 3
        // steps of reset, so the re-traversal prefix of each limited trace
        // is short — the paper's "does not add much overhead" observation
        let mut edges = Vec::new();
        for k in 0..20u32 {
            let a = 1 + 2 * k;
            let b = 2 + 2 * k;
            edges.push((0, a));
            edges.push((a, b));
            edges.push((b, 0));
        }
        let g = graph(&edges);
        let unlimited = generate_tours(&g, &TourConfig::default());
        let limited = generate_tours(&g, &TourConfig { instruction_limit: Some(6) });
        assert!(unlimited.covers_all_arcs(&g));
        assert!(limited.covers_all_arcs(&g));
        assert!(limited.traces().len() > unlimited.traces().len());
        // overhead stays well under 2x on a shallow graph
        assert!(
            limited.stats().total_edge_traversals < 2 * unlimited.stats().total_edge_traversals,
            "limited {} vs unlimited {}",
            limited.stats().total_edge_traversals,
            unlimited.stats().total_edge_traversals
        );
    }

    #[test]
    fn explore_counters_are_pinned() {
        // DFS covers 0->1->0->2->3->0 and dead-ends at 0 with 3->1 left;
        // the one explore follows 0->2->3 and dequeues 0, 2, 3 — a search
        // over every arc would also dequeue 1, one step from 0 but three
        // from the frontier
        let g = graph(&[(0, 1), (0, 2), (1, 0), (2, 3), (3, 0), (3, 1)]);
        let t = generate_tours(&g, &TourConfig::default());
        assert!(t.covers_all_arcs(&g));
        assert_eq!(t.traces().len(), 1);
        assert_eq!(t.stats().total_edge_traversals, 8);
        assert_eq!((t.stats().explores, t.stats().explore_states_visited), (1, 3));

        // the DFS strands itself on 1's self-loop; no untraversed arc is
        // reachable from 1, so the explore closes the trace without a search
        let g = graph(&[(0, 1), (0, 2), (1, 1), (2, 2)]);
        let t = generate_tours(&g, &TourConfig::default());
        assert_eq!(t.traces().len(), 2);
        assert_eq!((t.stats().explores, t.stats().explore_states_visited), (1, 0));
    }

    #[test]
    fn custom_cost_model_charges_selectively() {
        // label-odd edges are "stall" edges costing 0 instructions
        let g = graph(&[(0, 1), (1, 2), (2, 0)]);
        let t = generate_tours_with(&g, &TourConfig::default(), |_, label, _| {
            u64::from(label % 2 == 0)
        });
        assert!(t.covers_all_arcs(&g));
        assert_eq!(t.stats().total_edge_traversals, 3);
        assert_eq!(t.stats().total_instructions, 2); // labels 0 and 2
    }

    #[test]
    fn unreachable_arcs_reported_not_looped_forever() {
        // state 5 is disconnected from reset
        let mut b = GraphBuilder::new(EdgePolicy::AllLabels);
        b.add_edge(StateId(0), StateId(1), 0);
        b.add_edge(StateId(1), StateId(0), 1);
        b.add_edge(StateId(5), StateId(5), 99);
        let g = b.finish().unwrap().0;
        let t = generate_tours(&g, &TourConfig::default());
        assert!(!t.covers_all_arcs(&g));
        assert_eq!(t.stats().arcs_covered, 2);
        assert_eq!(t.stats().arcs_total, 3);
    }

    #[test]
    fn resolve_round_trips_edges() {
        let g = graph(&[(0, 1), (1, 0)]);
        let t = generate_tours(&g, &TourConfig::default());
        let steps: Vec<TraversedEdge> = t.resolve(&t.traces()[0]).collect();
        assert_eq!(steps[0].src, StateId(0));
        assert_eq!(steps[0].dst, StateId(1));
        assert_eq!(steps[1].src, StateId(1));
        assert_eq!(steps[1].dst, StateId(0));
    }

    #[test]
    fn self_loops_are_covered() {
        let g = graph(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let t = generate_tours(&g, &TourConfig::default());
        assert!(t.covers_all_arcs(&g));
        assert!(t.validate_adjacency(StateId(0)));
    }

    #[test]
    fn tour_set_shares_the_graph_storage() {
        let g = graph(&[(0, 1), (1, 0)]);
        let t = generate_tours(&g, &TourConfig::default());
        assert!(std::ptr::eq(g.row().as_ptr(), t.graph().row().as_ptr()));
    }
}
