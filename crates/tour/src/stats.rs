//! Tour-generation statistics in the shape of the paper's Table 3.3.

use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Statistics gathered during tour generation.
///
/// Mirrors Table 3.3: number of traces, total edge traversals, total
/// instructions, generation time, longest single trace, plus the
/// lower-bound analysis the paper uses to explain why the trace count is
/// identical with and without the instruction limit (arcs out of reset
/// representing distinct initial conditions cannot be combined).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TourStats {
    /// Number of traces generated.
    pub traces: usize,
    /// Total edge traversals across all traces (tour length including
    /// re-traversals).
    pub total_edge_traversals: u64,
    /// Total instructions generated under the cost model.
    pub total_instructions: u64,
    /// Wall-clock generation time.
    pub generation_time: Duration,
    /// Length in edges of the longest single trace.
    pub longest_trace_edges: usize,
    /// Traces cut short by the instruction limit.
    pub traces_terminated_by_limit: usize,
    /// Arcs in the graph.
    pub arcs_total: usize,
    /// Arcs covered by the tour set.
    pub arcs_covered: usize,
    /// Lower bound on the number of traces any generator needs (the
    /// out-degree of an unrevisitable reset state).
    pub min_traces_lower_bound: usize,
    /// Explore phases started: DFS dead ends with arcs still untraversed.
    pub explores: u64,
    /// States dequeued by the explore searches, summed over all explores.
    pub explore_states_visited: u64,
}

impl TourStats {
    /// Estimated wall-clock simulation time for the whole tour set at the
    /// given simulator speed in cycles per second (each edge traversal is
    /// one clock cycle). The paper estimates at 100 Hz, which prices its
    /// 21.2 M traversals at 58.9 hours.
    pub fn estimated_sim_time(&self, cycles_per_second: f64) -> Duration {
        Duration::from_secs_f64(self.total_edge_traversals as f64 / cycles_per_second)
    }

    /// Estimated wall-clock simulation time for the longest single trace —
    /// the paper's rerun-to-bug metric that the trace limit improves from
    /// 58.9 hours to 24 minutes.
    pub fn estimated_longest_trace_time(&self, cycles_per_second: f64) -> Duration {
        Duration::from_secs_f64(self.longest_trace_edges as f64 / cycles_per_second)
    }

    /// Average instructions generated per distinct arc (the paper's
    /// "a modest number of instructions (7) is needed to test each arc").
    pub fn instructions_per_arc(&self) -> f64 {
        if self.arcs_total == 0 {
            return 0.0;
        }
        self.total_instructions as f64 / self.arcs_total as f64
    }

    /// Fraction of arcs covered (1.0 for enumerated graphs).
    pub fn coverage(&self) -> f64 {
        if self.arcs_total == 0 {
            return 1.0;
        }
        self.arcs_covered as f64 / self.arcs_total as f64
    }
}

impl fmt::Display for TourStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Number of Traces Generated            {}", self.traces)?;
        writeln!(f, "Total number of edge traversals       {}", self.total_edge_traversals)?;
        writeln!(f, "Total number of instructions          {}", self.total_instructions)?;
        writeln!(
            f,
            "Generation time                       {:.2} s",
            self.generation_time.as_secs_f64()
        )?;
        writeln!(f, "Longest Single Trace                  {} edges", self.longest_trace_edges)?;
        writeln!(
            f,
            "Explores (states visited)             {} ({})",
            self.explores, self.explore_states_visited
        )?;
        write!(f, "Arc coverage                          {}/{}", self.arcs_covered, self.arcs_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_like() -> TourStats {
        TourStats {
            traces: 1296,
            total_edge_traversals: 21_200_173,
            total_instructions: 8_521_468,
            generation_time: Duration::from_secs(1),
            longest_trace_edges: 21_197_977,
            traces_terminated_by_limit: 0,
            arcs_total: 1_172_848,
            arcs_covered: 1_172_848,
            min_traces_lower_bound: 1296,
            explores: 4_096,
            explore_states_visited: 65_536,
        }
    }

    #[test]
    fn estimated_sim_time_matches_paper_arithmetic() {
        let s = paper_like();
        let t = s.estimated_sim_time(100.0);
        // 21,200,173 cycles at 100 Hz = 58.9 hours
        let hours = t.as_secs_f64() / 3600.0;
        assert!((hours - 58.9).abs() < 0.1, "got {hours}");
    }

    #[test]
    fn instructions_per_arc_is_about_seven() {
        let s = paper_like();
        let ipa = s.instructions_per_arc();
        assert!((ipa - 7.27).abs() < 0.05, "got {ipa}");
    }

    #[test]
    fn coverage_complete() {
        assert!((paper_like().coverage() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn display_contains_rows() {
        let text = paper_like().to_string();
        assert!(text.contains("1296"));
        assert!(text.contains("21200173"));
        assert!(text.contains("8521468"));
        assert!(text.contains("Explores (states visited)             4096 (65536)"));
    }
}
