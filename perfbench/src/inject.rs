//! `inject-standard`: a fault-injection campaign on the `standard`
//! preset, library defaults (delta re-enumeration on), no chaos mutants.
//!
//! One round is `archval_inject::run_campaign` taken at its public seams:
//! the reference `enumerate`, then `run_campaign_streaming` with an
//! observer that timestamps each finished mutant — the same calls
//! `run_campaign` makes. Delta re-enumeration and the lockstep replay of
//! the engines do most of the work; tours are built once, and neither
//! the RTL nor the server runs. State, transition and cycle bounds decide
//! every verdict; the default wall-clock deadline only guards against a
//! wedged engine.
//!
//! The traced run also times `build_suites` and the public mutant
//! enumerators (`enumerate_delta_opts` for model mutants, a full sweep
//! for program mutants) on the campaign's own mutants, outside the
//! measured round, to apportion a mutant's time between re-enumeration
//! and lockstep replay.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use archval_exec::{apply_program_mutation, StepProgram};
use archval_fsm::{
    apply_mutation, enumerate, enumerate_delta_opts, enumerate_with, DeltaOptions, EnumConfig,
    EnumResult, Model, RefDense, StateId,
};
use archval_inject::{
    build_suites, generate_mutants, run_campaign_streaming, run_isolated, CampaignConfig,
    CampaignReport, EnumOutcome, MutantSpec, Strategy, SuiteConfig, Verdict,
};
use archval_pp::{pp_control_model, DesignSpec};

use crate::trace::Tracer;
use crate::{mix, peak_rss_bytes, quantile, Args, Checks, Outcome};

/// Model mutants (in id order) whose graphs the benchmark re-enumerates
/// itself with a full sweep, as an independent check on the campaign.
const CHECKED_MODEL_MUTANTS: usize = 8;

struct Round {
    wall: Duration,
    reference: Duration,
    enumd: EnumResult,
    report: CampaignReport,
    /// Seconds between consecutive finished mutants: each mutant's time,
    /// from the second mutant on.
    mutant_gaps: Vec<f64>,
    /// Campaign start to the first finished mutant, which also holds the
    /// campaign's compile, suite build and dense reference table.
    first_gap: f64,
    /// Per mutant: seconds from the round's start until its verdicts.
    verdict_s: Vec<f64>,
}

fn cells(r: &Round) -> impl Iterator<Item = &archval_inject::StrategyVerdict> {
    r.report.mutants.iter().flat_map(|o| &o.verdicts)
}

fn round(model: &Model, config: &CampaignConfig, tracer: &Tracer) -> Result<Round, String> {
    tracer.span("bench.round", || {
        let t0 = Instant::now();
        let enumd = tracer
            .span("fsm.reference_enumerate", || enumerate(model, &EnumConfig::default()))
            .map_err(|e| e.to_string())?;
        let reference = t0.elapsed();
        let stamps: Mutex<Vec<Instant>> = Mutex::new(Vec::new());
        let t_campaign = Instant::now();
        let report = tracer
            .span("inject.run_campaign_streaming", || {
                run_campaign_streaming(model, &enumd, config, &|_| {
                    stamps.lock().expect("observer poisoned").push(Instant::now());
                })
            })
            .map_err(|e| e.to_string())?;
        let wall = t0.elapsed();
        let stamps = stamps.into_inner().expect("observer poisoned");
        let first_gap = stamps.first().map_or(0.0, |s| (*s - t_campaign).as_secs_f64());
        let mutant_gaps = stamps.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let verdict_s = stamps.iter().map(|s| (*s - t0).as_secs_f64()).collect();
        Ok(Round { wall, reference, enumd, report, mutant_gaps, first_gap, verdict_s })
    })
}

/// Lockstep cycles a verdict accounts for: a kill stops at its cycle, a
/// survivor replays its whole suite or the cycle budget, and a verdict
/// given without replay (explosion, timeout, panic) accounts for none.
fn accounted_cycles(verdict: &Verdict, suite_cycles: u64, max_cycles: u64) -> u64 {
    match verdict {
        Verdict::Killed { cycles } => *cycles,
        Verdict::Survived => suite_cycles.min(max_cycles),
        _ => 0,
    }
}

/// The traced run's split of the campaign, timed outside the round.
struct Split {
    suites_s: f64,
    prelude_s: f64,
    enumerate_s: f64,
    transitions: u64,
    spliced: u64,
}

fn split(
    model: &Model,
    enumd: &EnumResult,
    specs: &[MutantSpec],
    config: &CampaignConfig,
    tracer: &Tracer,
) -> Result<Split, String> {
    let t0 = Instant::now();
    let program = tracer.span("exec.compile", || StepProgram::compile(model));
    let t_suites = Instant::now();
    tracer
        .span("inject.build_suites", || build_suites(model, enumd, &config.suite))
        .map_err(|e| e.to_string())?;
    let suites_s = t_suites.elapsed().as_secs_f64();
    let dense = tracer
        .span("fsm.reference_dense", || RefDense::compute(model, enumd, &program))
        .map_err(|e| e.to_string())?;
    let prelude_s = t0.elapsed().as_secs_f64();

    let enum_config = EnumConfig {
        budget: config.budget.enum_budget(),
        state_limit: usize::MAX,
        ..EnumConfig::default()
    };
    let (mut enumerate_s, mut transitions, mut spliced) = (0.0, 0u64, 0u64);
    for spec in specs {
        let t = Instant::now();
        match spec {
            MutantSpec::Model(m) => {
                let mutant = apply_mutation(model, m).map_err(|e| e.to_string())?;
                let opts = DeltaOptions { deps: Some(program.dep_sets()), dense: dense.as_ref() };
                let r = tracer.span("fsm.mutant_enumerate_delta", || {
                    run_isolated(|| {
                        enumerate_delta_opts(model, enumd, &mutant, &enum_config, &mutant, opts)
                    })
                });
                if let Ok(Ok(d)) = r {
                    transitions += d.delta.evaluated_transitions;
                    spliced += d.delta.spliced_states as u64;
                }
            }
            MutantSpec::Program(p) => {
                let mutant = apply_program_mutation(&program, p).map_err(|e| e.to_string())?;
                let r = tracer.span("fsm.mutant_enumerate_full", || {
                    run_isolated(|| enumerate_with(model, &enum_config, &mutant))
                });
                if let Ok(Ok(r)) = r {
                    transitions += r.stats.transitions_evaluated;
                }
            }
            MutantSpec::Chaos(_) => {}
        }
        enumerate_s += t.elapsed().as_secs_f64();
    }
    Ok(Split { suites_s, prelude_s, enumerate_s, transitions, spliced })
}

fn check(
    model: &Model,
    config: &CampaignConfig,
    specs: &[MutantSpec],
    r: &Round,
    checks: &mut Checks,
) {
    let report = &r.report;
    checks.require(report.complete && report.mutants.len() == specs.len(), || {
        format!("{} outcomes for {} mutants", report.mutants.len(), specs.len())
    });
    for o in &report.mutants {
        for s in [Strategy::Tours, Strategy::Fuzz, Strategy::Random] {
            let n = o.verdicts.iter().filter(|v| v.strategy == s).count();
            checks.require(n == 1, || format!("mutant {}: {n} {s:?} verdicts", o.id));
        }
        checks.require(o.verdicts.len() == 3, || {
            format!("mutant {}: {} verdicts", o.id, o.verdicts.len())
        });
        for v in &o.verdicts {
            checks.require(!matches!(v.verdict, Verdict::Panicked | Verdict::Timeout), || {
                format!("mutant {} {:?}: {:?}", o.id, v.strategy, v.verdict)
            });
        }
    }

    // a fixed subset of model mutants, fully re-enumerated here: the
    // campaign's stage-1 outcome must match, and a mutant whose graph and
    // states equal the reference's cannot be told apart by the tours
    let enum_config = EnumConfig {
        budget: config.budget.enum_budget(),
        state_limit: usize::MAX,
        ..EnumConfig::default()
    };
    let model_ids = specs.iter().enumerate().filter(|(_, s)| matches!(s, MutantSpec::Model(_)));
    for (id, spec) in model_ids.take(CHECKED_MODEL_MUTANTS) {
        let MutantSpec::Model(m) = spec else { unreachable!("filtered to model mutants") };
        let Some(outcome) = report.mutants.iter().find(|o| o.id == id) else { continue };
        let Ok(mutant) = apply_mutation(model, m) else {
            checks.require(false, || format!("mutant {id} does not build"));
            continue;
        };
        let full =
            run_isolated(|| enumerate_with(&mutant, &enum_config, &StepProgram::compile(&mutant)));
        let Ok(Ok(full)) = full else { continue };
        if full.truncated.is_some() {
            continue;
        }
        checks.require(
            outcome.enumeration
                == EnumOutcome::Completed {
                    states: full.graph.state_count() as u64,
                    edges: full.graph.edge_count() as u64,
                },
            || {
                format!(
                    "mutant {id}: campaign says {:?}, full sweep disagrees",
                    outcome.enumeration
                )
            },
        );
        let identical = full.graph == r.enumd.graph
            && (0..full.graph.state_count() as u32)
                .all(|s| full.state_values(StateId(s)) == r.enumd.state_values(StateId(s)));
        if identical {
            let tours = outcome.verdicts.iter().find(|v| v.strategy == Strategy::Tours);
            checks.require(tours.is_some_and(|v| v.verdict == Verdict::Survived), || {
                format!("mutant {id} has the reference graph but tours say {tours:?}")
            });
        }
    }
}

pub fn run(args: &Args, tracer: &Tracer, started: Instant) -> Result<Outcome, String> {
    // set-up: the reference model of the design under test
    let spec = DesignSpec::standard();
    let model = pp_control_model(&spec).map_err(|e| e.to_string())?;
    let config = CampaignConfig {
        include_chaos: false,
        suite: SuiteConfig { seed: mix(args.seed, 1), ..SuiteConfig::default() },
        ..CampaignConfig::default()
    };
    let setup_s = started.elapsed().as_secs_f64();

    let mut rounds = Vec::new();
    let t_loop = Instant::now();
    while rounds.is_empty() || t_loop.elapsed().as_secs_f64() < args.seconds {
        rounds.push(round(&model, &config, tracer)?);
    }

    let first = &rounds[0];
    let program = StepProgram::compile(&model);
    let specs = generate_mutants(&model, &program, config.mutant_limit, config.include_chaos);
    let suites = build_suites(&model, &first.enumd, &config.suite).map_err(|e| e.to_string())?;
    let mut checks = Checks::default();
    check(&model, &config, &specs, first, &mut checks);
    for r in &rounds[1..] {
        checks.require(r.report == first.report, || "identical rounds reported differently".into());
    }

    let per_round = (specs.len() * 3) as u64;
    let attempted = per_round * rounds.len() as u64;
    let failed: u64 = rounds
        .iter()
        .map(|r| {
            let ok = cells(r)
                .filter(|v| !matches!(v.verdict, Verdict::Panicked | Verdict::Timeout))
                .count();
            per_round.saturating_sub(ok as u64)
        })
        .sum();

    let suite_cycles =
        |s: Strategy| suites.iter().find(|x| x.strategy == s).map_or(0, |x| x.total_cycles());
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64()).collect();
    let wall = quantile(&walls, 0.5);
    let replay_rates: Vec<f64> = rounds
        .iter()
        .map(|r| {
            let cycles: u64 = cells(r)
                .map(|v| {
                    accounted_cycles(&v.verdict, suite_cycles(v.strategy), config.budget.max_cycles)
                })
                .sum();
            cycles as f64 / r.wall.as_secs_f64()
        })
        .collect();
    let verdicts: Vec<f64> = rounds.iter().flat_map(|r| r.verdict_s.iter().copied()).collect();

    let mut o = Outcome {
        correct: checks.passed("inject-standard"),
        attempted,
        failed,
        ..Outcome::default()
    };
    let m = &mut o.metrics;
    m.insert("wall_s", wall);
    m.insert("vector_cycles", suites.iter().map(|s| s.total_cycles() as f64).sum());
    m.insert("replay_cycles_per_s", quantile(&replay_rates, 0.5));
    m.insert("peak_rss_bytes", peak_rss_bytes("self").ok_or("no /proc/self/status")?);
    m.insert("setup_s", setup_s);
    m.insert("requests_per_s", per_round as f64 / wall);
    m.insert("warm_p50_ms", quantile(&verdicts, 0.5) * 1e3);

    if args.trace {
        let last = rounds.last().expect("at least one round");
        let s =
            tracer.span("bench.split", || split(&model, &last.enumd, &specs, &config, tracer))?;
        let stats = &last.enumd.stats;
        let mutant_s: Vec<f64> = std::iter::once(last.first_gap - s.prelude_s)
            .chain(last.mutant_gaps.iter().copied())
            .collect();
        let kills = |st: Strategy| last.report.kill_rate(st).map_or(0.0, |k| k.killed as f64);
        m.insert("fsm.reference_enumerate_s", last.reference.as_secs_f64());
        m.insert("fsm.transitions_evaluated", stats.transitions_evaluated as f64);
        m.insert(
            "fsm.ns_per_transition",
            last.reference.as_secs_f64() * 1e9 / stats.transitions_evaluated.max(1) as f64,
        );
        m.insert("fsm.states", stats.states as f64);
        m.insert("fsm.edges", stats.edges as f64);
        m.insert("fsm.mutant_enumerate_s", s.enumerate_s);
        m.insert("fsm.mutant_transitions_evaluated", s.transitions as f64);
        m.insert("fsm.delta_spliced_states", s.spliced as f64);
        m.insert("inject.suites_s", s.suites_s);
        m.insert("inject.mutant_p50_s", quantile(&mutant_s, 0.5));
        m.insert("inject.mutant_max_s", quantile(&mutant_s, 1.0));
        m.insert("inject.replay_s", mutant_s.iter().sum::<f64>() - s.enumerate_s);
        m.insert("inject.mutants", last.report.mutants.len() as f64);
        m.insert("inject.killed.tours", kills(Strategy::Tours));
        m.insert("inject.killed.fuzz", kills(Strategy::Fuzz));
        m.insert("inject.killed.random", kills(Strategy::Random));
    }
    Ok(o)
}
