//! `perfbench` — the archval pipeline timed end to end and per layer.
//!
//! ```text
//! perfbench --workload <validate-full|inject-standard|serve-warm> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload in its own process: a set-up, then
//! whole rounds of the workload's fixed operations until `--seconds`
//! have passed (at least one round), then the output checks, which are
//! computed apart from the measured path and never count toward a
//! timing. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The traced
//! run also writes its spans to `out/trace-<workload>-<seed>.json` under
//! the package directory.
//!
//! Inputs come from `--seed` alone; the library runs with its defaults.
//! See README.md for the workloads, metrics and reference figures.

mod inject;
mod serve;
mod trace;
mod validate;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// End-to-end metrics: `(name, unit)`. Every run with `--trace 0` prints
/// each of them; see README.md for what each means on each workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("vector_cycles", "cycles"),
    ("replay_cycles_per_s", "cycles/s"),
    ("peak_rss_bytes", "bytes"),
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("warm_p50_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`. Every run with `--trace 1` prints
/// each of them; a layer a workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("verilog.model_build_ms", "ms"),
    ("exec.compile_s", "s"),
    ("fsm.enumerate_s", "s"),
    ("fsm.ns_per_transition", "ns"),
    ("fsm.transitions_evaluated", "count"),
    ("fsm.states", "count"),
    ("fsm.edges", "count"),
    ("fsm.reference_enumerate_s", "s"),
    ("fsm.mutant_enumerate_s", "s"),
    ("fsm.mutant_transitions_evaluated", "count"),
    ("fsm.delta_spliced_states", "count"),
    ("graph.builder_peak_bytes", "bytes"),
    ("graph.csr_bytes", "bytes"),
    ("graph.suppressed_duplicates", "count"),
    ("tour.generate_s", "s"),
    ("tour.traces", "count"),
    ("stimgen.map_s", "s"),
    ("stimgen.instructions", "count"),
    ("sim.replay_s", "s"),
    ("sim.regression_s", "s"),
    ("sim.cycles", "cycles"),
    ("sim.retired", "count"),
    ("sim.detect_cycles", "cycles"),
    ("core.flow_overhead_s", "s"),
    ("inject.suites_s", "s"),
    ("inject.mutant_p50_s", "s"),
    ("inject.mutant_max_s", "s"),
    ("inject.replay_s", "s"),
    ("inject.mutants", "count"),
    ("inject.killed.tours", "count"),
    ("inject.killed.fuzz", "count"),
    ("inject.killed.random", "count"),
    ("serve.to_accepted_ms.named", "ms"),
    ("serve.to_accepted_ms.fingerprint", "ms"),
    ("serve.to_graph_ready_ms", "ms"),
    ("serve.run_ms.enumerate", "ms"),
    ("serve.run_ms.fuzz", "ms"),
    ("serve.run_ms.tour", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cold_enumerate_s", "s"),
    ("self_s.verilog", "s"),
    ("self_s.exec", "s"),
    ("self_s.fsm", "s"),
    ("self_s.tour", "s"),
    ("self_s.stimgen", "s"),
    ("self_s.sim", "s"),
    ("self_s.core", "s"),
    ("self_s.inject", "s"),
    ("self_s.serve", "s"),
    ("self_s.bench", "s"),
    ("trace.overhead_s", "s"),
];

/// The command line of one run.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: its operation counts, whether every
/// output check held, and its metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Output-check bookkeeping: every failed check is kept with a reason.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Lists the failures (the first 20) on stderr; true when none.
    pub fn passed(&self, workload: &str) -> bool {
        for f in self.failures.iter().take(20) {
            eprintln!("perfbench {workload}: check failed: {f}");
        }
        if self.failures.len() > 20 {
            eprintln!("perfbench {workload}: ... {} more failed checks", self.failures.len() - 20);
        }
        self.failures.is_empty()
    }
}

/// SplitMix64: derives independent input seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `q`-quantile (nearest rank) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set size of a process (`VmHWM`), in bytes.
pub fn peak_rss_bytes(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

/// The package directory: every run's scratch and output files live
/// under it, inside the checkout the benchmark was built in.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <validate-full|inject-standard|serve-warm> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s: &f64| *s >= 0.0)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    (!args.workload.is_empty()).then_some(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(serve::CHILD_FLAG) {
        return serve::child_main(&argv[1..]);
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let tracer = Tracer::new(args.trace, started);
    let result = match args.workload.as_str() {
        "validate-full" => validate::run(&args, &tracer, started),
        "inject-standard" => inject::run(&args, &tracer, started),
        "serve-warm" => serve::run(&args, &tracer, started),
        _ => return usage(),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        outcome.metrics.insert("trace.overhead_s", tracer.overhead_seconds());
        for (layer, s) in tracer.self_seconds() {
            if let Some((name, _)) =
                PER_LAYER.iter().find(|(n, _)| n.strip_prefix("self_s.") == Some(layer.as_str()))
            {
                outcome.metrics.insert(name, s);
            }
        }
        let dir = package_dir().join("out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json()))
        {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            // a layer this workload never calls did no work in it
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench {}: metric {name} was not measured", args.workload);
                return ExitCode::FAILURE;
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench {}: metric {name} is {value}", args.workload);
            return ExitCode::FAILURE;
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}
