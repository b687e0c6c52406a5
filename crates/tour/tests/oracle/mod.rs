//! The explore phase as it was before the distance field: one BFS over
//! every arc at each DFS dead end. Kept only as the oracle the incremental
//! explore must reproduce trace for trace.

use std::time::Duration;

use archval_fsm::graph::{EdgeIx, StateGraph, StateId};
use archval_fsm::EdgeLabel;
use archval_tour::{TourConfig, TourStats, Trace};

/// Generates tours with a full BFS per explore; returns the traces and the
/// statistics (with a zero `generation_time`).
pub fn reference_tours(
    graph: &StateGraph,
    config: &TourConfig,
    instr_cost: impl Fn(StateId, EdgeLabel, StateId) -> u64,
) -> (Vec<Trace>, TourStats) {
    let n = graph.state_count();
    let m = graph.edge_count();

    let mut covered = vec![false; m];
    let mut untraversed_out: Vec<u32> =
        (0..n).map(|s| graph.out_degree(StateId(s as u32)) as u32).collect();
    let mut cursor: Vec<u32> = (0..n).map(|s| graph.out_range(StateId(s as u32)).start).collect();
    let mut remaining = m;

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

    let take = |e: EdgeIx,
                trace: &mut Trace,
                covered: &mut Vec<bool>,
                untraversed_out: &mut Vec<u32>,
                remaining: &mut usize,
                fresh_in_trace: &mut usize| {
        let src = graph.edge_src(e);
        let dst = graph.edge_dst(e);
        if !covered[e.0 as usize] {
            covered[e.0 as usize] = true;
            untraversed_out[src.0 as usize] -= 1;
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
            loop {
                let range = graph.out_range(state);
                let mut cur = cursor[state.0 as usize].max(range.start);
                while cur < range.end && covered[cur as usize] {
                    cur += 1;
                }
                cursor[state.0 as usize] = cur;
                if cur >= range.end {
                    if untraversed_out[state.0 as usize] == 0 {
                        break;
                    }
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
                                EdgeIx(e),
                                &mut trace,
                                &mut covered,
                                &mut untraversed_out,
                                &mut remaining,
                                &mut fresh_in_trace,
                            );
                        }
                        None => break,
                    }
                } else {
                    state = take(
                        EdgeIx(cur),
                        &mut trace,
                        &mut covered,
                        &mut untraversed_out,
                        &mut remaining,
                        &mut fresh_in_trace,
                    );
                }
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

            // the full BFS: every arc, every reachable state until a state
            // with an untraversed out-edge comes off the queue
            explores += 1;
            generation += 1;
            bfs_queue.clear();
            bfs_gen[state.0 as usize] = generation;
            bfs_queue.push(state.0);
            let mut head = 0usize;
            let mut found: Option<StateId> = None;
            while head < bfs_queue.len() {
                let s = StateId(bfs_queue[head]);
                head += 1;
                if untraversed_out[s.0 as usize] > 0 && s != state {
                    found = Some(s);
                    break;
                }
                for e in graph.out_range(s) {
                    let d = graph.edge_dst(EdgeIx(e));
                    if bfs_gen[d.0 as usize] != generation {
                        bfs_gen[d.0 as usize] = generation;
                        bfs_parent_edge[d.0 as usize] = EdgeIx(e);
                        bfs_queue.push(d.0);
                    }
                }
            }
            explore_states_visited += head as u64;
            match found {
                Some(target) => {
                    let mut path = Vec::new();
                    let mut at = target;
                    while at != state {
                        let pe = bfs_parent_edge[at.0 as usize];
                        path.push(pe);
                        at = graph.edge_src(pe);
                    }
                    path.reverse();
                    for e in path {
                        state = take(
                            e,
                            &mut trace,
                            &mut covered,
                            &mut untraversed_out,
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
                None => break,
            }
        }
        let made_progress = fresh_in_trace > 0;
        if made_progress {
            total_traversals += trace.len() as u64;
            total_instructions += trace.instructions;
            traces.push(trace);
        }
        if !made_progress {
            break;
        }
    }

    let in_deg = graph.in_degrees();
    let stats = TourStats {
        traces: traces.len(),
        total_edge_traversals: total_traversals,
        total_instructions,
        generation_time: Duration::ZERO,
        longest_trace_edges: traces.iter().map(Trace::len).max().unwrap_or(0),
        traces_terminated_by_limit: traces.iter().filter(|t| t.hit_limit).count(),
        arcs_total: m,
        arcs_covered: covered.iter().filter(|&&c| c).count(),
        min_traces_lower_bound: if n > 0 && in_deg[0] == 0 {
            graph.out_degree(reset)
        } else {
            usize::from(n > 0)
        },
        explores,
        explore_states_visited,
    };
    (traces, stats)
}

/// `stats` with the fields that may differ between the two explores —
/// wall-clock time and the search-effort counter — zeroed.
pub fn comparable(stats: &TourStats) -> TourStats {
    TourStats { generation_time: Duration::ZERO, explore_states_visited: 0, ..stats.clone() }
}
