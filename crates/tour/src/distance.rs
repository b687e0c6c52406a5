//! The distance field behind the explore phase of Figure 3.3.
//!
//! At every DFS dead end the generator needs the nearest *frontier* state —
//! one that still has an untraversed out-arc — and the shortest path to it.
//! [`DistanceField`] keeps `dist[v]`, the forward distance in edges from
//! every state `v` to the frontier (or [`UNREACHABLE`]), so the explore
//! search can walk shortest paths only instead of flooding the graph.
//!
//! The field is built once with a multi-source BFS over a reverse CSR. The
//! frontier only shrinks as arcs are traversed, so distances only grow;
//! [`DistanceField::retire`] applies a batch of states that left the
//! frontier as one decremental update:
//!
//! 1. **Mark**, in level order, the states whose distance must grow: the
//!    retired states, then every state whose successors one step closer to
//!    the frontier have all been marked.
//! 2. **Re-settle** only the marked states with a unit-weight Dijkstra
//!    seeded from their unmarked successors, whose distances are final. A
//!    marked region cut off from the frontier is never settled and goes
//!    straight to [`UNREACHABLE`].

use archval_fsm::graph::{StateGraph, StateId};

/// Distance of a state from which no frontier state is reachable.
pub(crate) const UNREACHABLE: u32 = u32::MAX;

/// Per-state update flags, reset to `IDLE` after every batch.
const IDLE: u8 = 0;
/// The distance grows in this batch; tentative until settled.
const MARKED: u8 = 1;
/// Checked in this batch and found to keep its distance.
const KEPT: u8 = 2;
/// Marked, and its new distance is final.
const SETTLED: u8 = 3;

/// Forward distances from every state to the nearest frontier state,
/// maintained under frontier removals.
#[derive(Debug)]
pub(crate) struct DistanceField {
    dist: Vec<u32>,
    /// Reverse CSR: the sources of the in-arcs of state `v` are
    /// `pred[pred_row[v]..pred_row[v + 1]]`, one entry per arc.
    pred_row: Vec<u32>,
    pred: Vec<u32>,
    flag: Vec<u8>,
    /// Scratch reused across batches.
    marked: Vec<u32>,
    kept: Vec<u32>,
    seeds: Vec<(u32, u32)>,
    queue: Vec<u32>,
}

impl DistanceField {
    /// Builds the field for the frontier `{v : is_frontier(v)}`.
    pub(crate) fn new(graph: &StateGraph, is_frontier: impl Fn(StateId) -> bool) -> Self {
        let n = graph.state_count();
        let mut pred_row = vec![0u32; n + 1];
        for &d in graph.dst() {
            pred_row[d as usize + 1] += 1;
        }
        for v in 0..n {
            pred_row[v + 1] += pred_row[v];
        }
        let mut fill = pred_row.clone();
        let mut pred = vec![0u32; graph.edge_count()];
        for s in 0..n {
            for e in graph.out_range(StateId(s as u32)) {
                let d = graph.dst()[e as usize] as usize;
                pred[fill[d] as usize] = s as u32;
                fill[d] += 1;
            }
        }

        let mut queue: Vec<u32> = (0..n as u32).filter(|&v| is_frontier(StateId(v))).collect();
        let mut dist = vec![UNREACHABLE; n];
        for &v in &queue {
            dist[v as usize] = 0;
        }
        let mut head = 0;
        while head < queue.len() {
            let w = queue[head] as usize;
            head += 1;
            for &u in &pred[pred_row[w] as usize..pred_row[w + 1] as usize] {
                if dist[u as usize] == UNREACHABLE {
                    dist[u as usize] = dist[w] + 1;
                    queue.push(u);
                }
            }
        }
        queue.clear();

        DistanceField {
            dist,
            pred_row,
            pred,
            flag: vec![IDLE; n],
            marked: Vec::new(),
            kept: Vec::new(),
            seeds: Vec::new(),
            queue,
        }
    }

    /// Distance from `s` to the nearest frontier state.
    #[inline]
    pub(crate) fn dist(&self, s: StateId) -> u32 {
        self.dist[s.0 as usize]
    }

    fn preds(&self, v: u32) -> std::ops::Range<usize> {
        self.pred_row[v as usize] as usize..self.pred_row[v as usize + 1] as usize
    }

    /// Removes `retired` from the frontier and brings every distance up to
    /// date. Each state in `retired` must have been a frontier state.
    pub(crate) fn retire(&mut self, graph: &StateGraph, retired: &[u32]) {
        if retired.is_empty() {
            return;
        }
        let dst = graph.dst();

        // 1. mark, level by level: FIFO order is level order, so every
        //    state one level down is marked before its predecessors are
        //    checked, and each check is final
        self.marked.clear();
        for &v in retired {
            debug_assert_eq!(self.dist[v as usize], 0, "retired state was not on the frontier");
            self.flag[v as usize] = MARKED;
            self.marked.push(v);
        }
        let mut head = 0;
        while head < self.marked.len() {
            let w = self.marked[head];
            head += 1;
            let level = self.dist[w as usize];
            for i in self.preds(w) {
                let u = self.pred[i];
                if self.flag[u as usize] != IDLE || self.dist[u as usize] != level + 1 {
                    continue;
                }
                let keeps = graph.out_range(StateId(u)).any(|e| {
                    let x = dst[e as usize] as usize;
                    self.dist[x] == level && self.flag[x] != MARKED
                });
                if keeps {
                    self.flag[u as usize] = KEPT;
                    self.kept.push(u);
                } else {
                    self.flag[u as usize] = MARKED;
                    self.marked.push(u);
                }
            }
        }

        // 2. re-settle the marked states: seed each from its unmarked
        //    successors, then run Dijkstra by merging the sorted seeds
        //    with a FIFO whose distances never decrease (unit weights)
        self.seeds.clear();
        for &v in &self.marked {
            let best = graph
                .out_range(StateId(v))
                .map(|e| dst[e as usize] as usize)
                .filter(|&x| self.flag[x] != MARKED)
                .map(|x| self.dist[x])
                .min()
                .unwrap_or(UNREACHABLE);
            if best != UNREACHABLE {
                self.seeds.push((best + 1, v));
            }
        }
        for &v in &self.marked {
            self.dist[v as usize] = UNREACHABLE;
        }
        for &(d, v) in &self.seeds {
            self.dist[v as usize] = d;
        }
        self.seeds.sort_unstable();
        self.queue.clear();
        let (mut si, mut qi) = (0, 0);
        loop {
            let from_queue = match (self.seeds.get(si), self.queue.get(qi)) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(&(d, _)), Some(&q)) => self.dist[q as usize] <= d,
            };
            let v = if from_queue {
                qi += 1;
                self.queue[qi - 1]
            } else {
                si += 1;
                self.seeds[si - 1].1
            };
            if self.flag[v as usize] != MARKED {
                continue; // already settled through a shorter route
            }
            self.flag[v as usize] = SETTLED;
            let d = self.dist[v as usize] + 1;
            for i in self.preds(v) {
                let u = self.pred[i] as usize;
                if self.flag[u] == MARKED && d < self.dist[u] {
                    self.dist[u] = d;
                    self.queue.push(u as u32);
                }
            }
        }

        for &v in self.marked.iter().chain(&self.kept) {
            self.flag[v as usize] = IDLE;
        }
        self.kept.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archval_fsm::graph::{EdgePolicy, GraphBuilder};

    fn graph(n: u32, edges: &[(u32, u32)]) -> StateGraph {
        let mut b = GraphBuilder::new(EdgePolicy::AllLabels);
        b.ensure_state(StateId(n - 1));
        for (i, &(s, d)) in edges.iter().enumerate() {
            b.add_edge(StateId(s), StateId(d), i as u64);
        }
        b.finish().unwrap().0
    }

    /// Distances recomputed from scratch, the oracle for the updates.
    fn fresh(g: &StateGraph, frontier: &[bool]) -> Vec<u32> {
        let f = DistanceField::new(g, |s| frontier[s.0 as usize]);
        (0..g.state_count()).map(|v| f.dist(StateId(v as u32))).collect()
    }

    fn dists(f: &DistanceField, n: usize) -> Vec<u32> {
        (0..n).map(|v| f.dist(StateId(v as u32))).collect()
    }

    #[test]
    fn builds_forward_distances_to_the_frontier() {
        // chain 0 -> 1 -> 2 -> 3, with 3 the only frontier state; 4 is a
        // sink nobody can leave
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 4)]);
        let f = DistanceField::new(&g, |s| s.0 == 3);
        assert_eq!(dists(&f, 5), vec![3, 2, 1, 0, UNREACHABLE]);
    }

    #[test]
    fn retiring_the_only_frontier_state_disconnects_everything() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let mut f = DistanceField::new(&g, |s| s.0 == 2);
        f.retire(&g, &[2]);
        assert_eq!(dists(&f, 3), vec![UNREACHABLE; 3]);
    }

    #[test]
    fn retiring_a_near_target_reroutes_to_a_farther_one() {
        // 0 -> 1 (frontier) and 0 -> 2 -> 3 (frontier)
        let g = graph(4, &[(0, 1), (0, 2), (2, 3), (1, 0), (3, 0)]);
        let mut frontier = vec![false, true, false, true];
        let mut f = DistanceField::new(&g, |s| frontier[s.0 as usize]);
        assert_eq!(dists(&f, 4), vec![1, 0, 1, 0]);
        frontier[1] = false;
        f.retire(&g, &[1]);
        assert_eq!(dists(&f, 4), fresh(&g, &frontier));
        assert_eq!(dists(&f, 4), vec![2, 3, 1, 0]);
    }

    #[test]
    fn random_retirement_orders_match_a_fresh_build() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for _ in 0..200 {
            let n = 1 + next(24) as u32;
            let edges: Vec<(u32, u32)> = (0..next(3 * n as u64 + 1))
                .map(|_| (next(n as u64) as u32, next(n as u64) as u32))
                .collect();
            let g = graph(n, &edges);
            let mut frontier: Vec<bool> = (0..n).map(|_| next(3) != 0).collect();
            let mut f = DistanceField::new(&g, |s| frontier[s.0 as usize]);
            loop {
                let live: Vec<u32> = (0..n).filter(|&v| frontier[v as usize]).collect();
                if live.is_empty() {
                    break;
                }
                let batch: Vec<u32> = live.into_iter().filter(|_| next(2) == 0).collect();
                for &v in &batch {
                    frontier[v as usize] = false;
                }
                f.retire(&g, &batch);
                assert_eq!(dists(&f, n as usize), fresh(&g, &frontier));
            }
        }
    }
}
