//! Regenerates Table 3.3: test-vector generation with and without the
//! 10,000-instruction trace limit, paper columns alongside.

use serde::{Deserialize, Serialize};

use archval_bench::{emit_bench_json, scale_from_args, BenchError};
use archval_exec::StepProgram;
use archval_fsm::{enumerate_with, EnumConfig};
use archval_pp::pp_control_model;
use archval_stimgen::mapping::pp_instr_cost;
use archval_tour::{generate_tours_with, TourConfig};

/// One generation run (with or without the trace limit) in
/// `BENCH_table3_3.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GenRow {
    limit: Option<u64>,
    traces: usize,
    total_edge_traversals: u64,
    total_instructions: u64,
    longest_trace_edges: usize,
    generation_seconds: f64,
    /// Explore phases started (DFS dead ends with arcs left).
    explores: u64,
    /// States dequeued by the explore searches.
    explore_states_visited: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Table33Bench {
    scale: String,
    rows: Vec<GenRow>,
    wall_seconds: f64,
}

fn main() {
    archval_bench::run("repro-table3-3", body);
}

fn body() -> Result<(), BenchError> {
    let scale = scale_from_args();
    let started = std::time::Instant::now();
    eprintln!("enumerating at {scale:?} ...");
    let model = pp_control_model(&scale)?;
    // the graph is byte-identical on every engine; the batched compiled
    // sweep is the fastest way to it
    let program = StepProgram::compile(&model);
    let config = EnumConfig { batch_lanes: archval::DEFAULT_LANES, ..EnumConfig::default() };
    let enumd = enumerate_with(&model, &config, &program)?;
    eprintln!("generating tours ...");

    let unlimited = generate_tours_with(
        &enumd.graph,
        &TourConfig::default(),
        pp_instr_cost(&scale, &model, &enumd),
    );
    let limited = generate_tours_with(
        &enumd.graph,
        &TourConfig::with_paper_limit(),
        pp_instr_cost(&scale, &model, &enumd),
    );
    if !unlimited.covers_all_arcs(&enumd.graph) || !limited.covers_all_arcs(&enumd.graph) {
        return Err(BenchError::Invalid("tours left arcs uncovered".into()));
    }

    println!("== Table 3.3 — Test Vector Generation Statistics ({scale:?}) ==");
    println!(
        "{:<34} {:>16} {:>16} | {:>14} {:>14}",
        "", "paper no-limit", "paper 10k-limit", "ours no-limit", "ours 10k-limit"
    );
    let p = |label: &str, a: String, b: String, c: String, d: String| {
        println!("{label:<34} {a:>16} {b:>16} | {c:>14} {d:>14}");
    };
    let (u, l) = (unlimited.stats(), limited.stats());
    p(
        "Number of Traces Generated",
        "1,296".into(),
        "1,296".into(),
        u.traces.to_string(),
        l.traces.to_string(),
    );
    p(
        "Total edge traversals",
        "21,200,173".into(),
        "21,252,235".into(),
        u.total_edge_traversals.to_string(),
        l.total_edge_traversals.to_string(),
    );
    p(
        "Total instructions",
        "8,521,468".into(),
        "8,557,660".into(),
        u.total_instructions.to_string(),
        l.total_instructions.to_string(),
    );
    p(
        "Generation time",
        "161,159 cpu s".into(),
        "193,330 cpu s".into(),
        format!("{:.1} s", u.generation_time.as_secs_f64()),
        format!("{:.1} s", l.generation_time.as_secs_f64()),
    );
    p("Explores", "-".into(), "-".into(), u.explores.to_string(), l.explores.to_string());
    p(
        "Explore states visited",
        "-".into(),
        "-".into(),
        u.explore_states_visited.to_string(),
        l.explore_states_visited.to_string(),
    );
    p(
        "Longest Single Trace (edges)",
        "21,197,977".into(),
        "144,520".into(),
        u.longest_trace_edges.to_string(),
        l.longest_trace_edges.to_string(),
    );
    p(
        "Est. simulation @100Hz (total)",
        "58.9 hours".into(),
        "59.0 hours".into(),
        format!("{:.1} h", u.estimated_sim_time(100.0).as_secs_f64() / 3600.0),
        format!("{:.1} h", l.estimated_sim_time(100.0).as_secs_f64() / 3600.0),
    );
    p(
        "Est. sim @100Hz (longest trace)",
        "58.9 hours".into(),
        "24 mins".into(),
        format!("{:.1} h", u.estimated_longest_trace_time(100.0).as_secs_f64() / 3600.0),
        format!("{:.1} m", l.estimated_longest_trace_time(100.0).as_secs_f64() / 60.0),
    );

    println!("\nshape checks:");
    println!(
        "  trace counts identical with/without limit: {} (paper: yes — reset-only arcs \n\
         bound the count; ours achieves the lower bound {})",
        u.traces == l.traces,
        u.min_traces_lower_bound
    );
    println!(
        "  instruction overhead of the limit: {:+.2}% (paper: +0.42%)",
        100.0 * (l.total_instructions as f64 / u.total_instructions as f64 - 1.0)
    );
    println!(
        "  first trace dominates without limit: longest/total = {:.1}% (paper: >99%)",
        100.0 * u.longest_trace_edges as f64 / u.total_edge_traversals as f64
    );
    println!("  instructions per arc: {:.2} (paper: ~7)", u.instructions_per_arc());

    let gen_row = |limit: Option<u64>, s: &archval_tour::stats::TourStats| GenRow {
        limit,
        traces: s.traces,
        total_edge_traversals: s.total_edge_traversals,
        total_instructions: s.total_instructions,
        longest_trace_edges: s.longest_trace_edges,
        generation_seconds: s.generation_time.as_secs_f64(),
        explores: s.explores,
        explore_states_visited: s.explore_states_visited,
    };
    emit_bench_json(
        "table3_3",
        &Table33Bench {
            scale: format!("{scale:?}"),
            rows: vec![gen_row(None, u), gen_row(Some(10_000), l)],
            wall_seconds: started.elapsed().as_secs_f64(),
        },
    )?;
    Ok(())
}
