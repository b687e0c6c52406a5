//! `validate-full`: the paper's flow on the `full` preset, the smallest
//! design where every Table 2.1 bug is reachable.
//!
//! Set-up generates the design's annotated Verilog and translates it
//! (`ValidationFlow::from_verilog`). One round runs `ValidationFlow` on
//! that model (compile, enumerate, tours with the paper's
//! 10,000-instruction trace limit), `trace_to_stimulus` on every trace,
//! and `compare_stimulus` of every trace against the bug-free RTL and
//! against each of the six single-bug RTLs.
//! Tour generation and enumeration do most of the work; the RTL/spec
//! lockstep runs millions of cycles.

use std::time::{Duration, Instant};

use archval::ValidationFlow;
use archval_fsm::{EdgeIx, Model, StateId, SyncSim};
use archval_pp::rtl::{ExtIn, Forces, RtlSim};
use archval_pp::{pp_control_verilog, Bug, BugSet, CtrlIn, CtrlState, DesignSpec, RefSim};
use archval_sim::compare::{compare_stimulus, ComparisonReport};
use archval_stimgen::{trace_to_stimulus, Stimulus};

use crate::trace::Tracer;
use crate::{mix, peak_rss_bytes, quantile, Args, Checks, Outcome};

/// The paper's per-trace instruction limit (Table 3.3).
const TRACE_LIMIT: u64 = 10_000;

/// Everything one round produced, kept for the checks.
struct Round {
    wall: Duration,
    flow: archval::FlowResult,
    stimuli: Vec<Stimulus>,
    map: Duration,
    flow_run: Duration,
    replay: Duration,
    regression: Duration,
    /// Bug-free comparison per trace; `Err` when control left the tour.
    bug_free: Vec<Result<ComparisonReport, String>>,
    /// Per bug: `(trace that exposed it, cycles simulated until then)`.
    detections: Vec<Option<(usize, u64)>>,
    /// Per trace: ms from the round's start until its last comparison.
    verdict_ms: Vec<f64>,
    cycles: u64,
    retired: u64,
}

fn round(spec: &DesignSpec, model: &Model, seed: u64, tracer: &Tracer) -> Result<Round, String> {
    tracer.span("bench.round", || {
        let t0 = Instant::now();
        let flow = ValidationFlow::from_model(model.clone()).instruction_limit(Some(TRACE_LIMIT));
        let t_run = Instant::now();
        let flow = flow.run().map_err(|e| e.to_string())?;
        let flow_run = t_run.elapsed();
        // the flow bundles three stages; place them from the timings it
        // returns, in the order it runs them
        let parent = tracer.record("core.flow_run", tracer.current(), t_run, t_run + flow_run);
        let mut at = t_run;
        for (name, d) in [
            ("exec.compile", Duration::from_secs_f64(flow.compile_seconds)),
            ("fsm.enumerate", flow.enumd.stats.elapsed),
            ("tour.generate", flow.tours.stats().generation_time),
        ] {
            tracer.record(name, Some(parent), at, at + d);
            at += d;
        }

        let t_map = Instant::now();
        let stimuli: Vec<Stimulus> = tracer.span("stimgen.map", || {
            flow.tours
                .traces()
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    trace_to_stimulus(spec, &flow.model, &flow.tours, t, mix(seed, i as u64))
                })
                .collect()
        });
        let map = t_map.elapsed();

        // trace by trace: the bug-free comparison, then the six bugs, so
        // each trace's verdict is complete before the next trace starts
        let (mut replay, mut regression) = (Duration::ZERO, Duration::ZERO);
        let (mut cycles, mut retired) = (0u64, 0u64);
        let mut bug_free = Vec::with_capacity(stimuli.len());
        let mut detections = vec![None; Bug::ALL.len()];
        let mut so_far = [0u64; Bug::ALL.len()];
        let mut verdict_ms = Vec::with_capacity(stimuli.len());
        let mut count = |r: &ComparisonReport| {
            cycles += r.cycles;
            retired += r.retired as u64;
        };
        for (i, stim) in stimuli.iter().enumerate() {
            let t = Instant::now();
            let r = compare_stimulus(stim, BugSet::none()).map_err(|e| e.to_string());
            let t_bugs = Instant::now();
            tracer.record("sim.replay", tracer.current(), t, t_bugs);
            if let Ok(r) = &r {
                count(r);
            }
            bug_free.push(r);
            for (b, &bug) in Bug::ALL.iter().enumerate() {
                // a bug may derail control; only the bug-free run checks
                // the tour, so this never errors
                let Ok(r) = compare_stimulus(stim, BugSet::only(bug)) else { continue };
                count(&r);
                so_far[b] += r.cycles;
                if detections[b].is_none() && r.detected() {
                    detections[b] = Some((i, so_far[b]));
                }
            }
            let done = Instant::now();
            tracer.record("sim.regression", tracer.current(), t_bugs, done);
            replay += t_bugs - t;
            regression += done - t_bugs;
            verdict_ms.push((done - t0).as_secs_f64() * 1e3);
        }

        Ok(Round {
            wall: t0.elapsed(),
            flow,
            stimuli,
            map,
            flow_run,
            replay,
            regression,
            bug_free,
            detections,
            verdict_ms,
            cycles,
            retired,
        })
    })
}

/// The output checks, each computed apart from the measured path.
fn check(spec: &DesignSpec, r: &Round, checks: &mut Checks) {
    let graph = &r.flow.enumd.graph;
    let tours = &r.flow.tours;

    // arc coverage and reset chaining, recomputed from traces and graph
    let mut covered = vec![false; graph.edge_count()];
    for (i, t) in tours.traces().iter().enumerate() {
        let mut at = StateId(0);
        for &e in &t.steps {
            checks.require(graph.edge_src(e) == at, || {
                format!("trace {i} breaks the chain from reset")
            });
            covered[e.0 as usize] = true;
            at = graph.edge_dst(e);
        }
    }
    let missed = covered.iter().filter(|c| !**c).count();
    checks.require(missed == 0, || format!("{missed} arcs left uncovered by the tours"));

    // every arc re-stepped on the tree-walking oracle
    let model = &r.flow.model;
    let mut sim = SyncSim::new(model);
    let mut bad_arcs = 0usize;
    for s in 0..graph.state_count() as u32 {
        let from = r.flow.enumd.state_values(StateId(s));
        for e in graph.out_range(StateId(s)) {
            let e = EdgeIx(e);
            sim.set_state(&from);
            let landed = sim.step_code(graph.edge_label(e)).is_ok()
                && sim.state() == r.flow.enumd.state_values(graph.edge_dst(e)).as_slice();
            bad_arcs += usize::from(!landed);
        }
    }
    checks.require(bad_arcs == 0, || format!("{bad_arcs} arcs land elsewhere on the tree oracle"));

    // the bug-free RTL follows every trace's predicted control state,
    // cycle by cycle, and retires exactly what the specification does
    for (i, (t, stim)) in tours.traces().iter().zip(&r.stimuli).enumerate() {
        let mut rtl = RtlSim::new(*spec, BugSet::none(), &stim.program, stim.inbox.clone());
        for (cycle, step) in tours.resolve(t).enumerate() {
            let ctrl = CtrlIn::from_choices(spec, &model.decode_choices(step.label));
            rtl.step(
                ExtIn {
                    inbox_ready: ctrl.inbox_ready,
                    outbox_ready: ctrl.outbox_ready,
                    mem_ready: ctrl.mem_ready,
                },
                Forces {
                    ihit: Some(ctrl.ihit),
                    dhit: Some(ctrl.dhit),
                    victim_dirty: Some(ctrl.victim_dirty),
                    same_line: Some(ctrl.same_line),
                },
            );
            let predicted = CtrlState::from_values(spec, &r.flow.enumd.state_values(step.dst));
            if *rtl.ctrl() != predicted {
                checks
                    .require(false, || format!("trace {i}: RTL control diverges at cycle {cycle}"));
                break;
            }
        }
        let mut reference = RefSim::new(&stim.program, stim.inbox.clone());
        reference.run(rtl.retired().len());
        let n = rtl.retired().len();
        checks.require(reference.retired().get(..n) == Some(rtl.retired()), || {
            format!("trace {i}: bug-free RTL retires differently from RefSim")
        });
    }

    for (bug, d) in Bug::ALL.iter().zip(&r.detections) {
        checks.require(d.is_some(), || format!("{bug:?} not detected by the tour vectors"));
    }
}

pub fn run(args: &Args, tracer: &Tracer, started: Instant) -> Result<Outcome, String> {
    // set-up: the design's generated annotated Verilog, translated
    let spec = DesignSpec::full();
    let src = pp_control_verilog(&spec);
    let t_build = Instant::now();
    let model = tracer
        .span("verilog.from_verilog", || ValidationFlow::from_verilog(&src, &spec.design_id()))
        .map_err(|e| e.to_string())?
        .model()
        .clone();
    let model_build = t_build.elapsed();
    let setup_s = started.elapsed().as_secs_f64();

    let mut rounds = Vec::new();
    let t_loop = Instant::now();
    while rounds.is_empty() || t_loop.elapsed().as_secs_f64() < args.seconds {
        rounds.push(round(&spec, &model, args.seed, tracer)?);
    }

    let first = &rounds[0];
    let mut checks = Checks::default();
    check(&spec, first, &mut checks);
    for r in &rounds[1..] {
        checks.require(r.cycles == first.cycles && r.detections == first.detections, || {
            "rounds with identical inputs produced different results".into()
        });
    }

    let traces = first.stimuli.len() as u64;
    let attempted = (traces + Bug::ALL.len() as u64) * rounds.len() as u64;
    let failed: u64 = rounds
        .iter()
        .map(|r| {
            r.bug_free
                .iter()
                .filter(|b| b.as_ref().map_or(true, ComparisonReport::detected))
                .count() as u64
                + r.detections.iter().filter(|d| d.is_none()).count() as u64
        })
        .sum();

    let last = rounds.last().expect("at least one round");
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64()).collect();
    let wall = quantile(&walls, 0.5);
    let verdicts: Vec<f64> = rounds.iter().flat_map(|r| r.verdict_ms.iter().copied()).collect();
    let replay_rates: Vec<f64> =
        rounds.iter().map(|r| r.cycles as f64 / r.wall.as_secs_f64()).collect();

    let mut o = Outcome {
        correct: checks.passed("validate-full"),
        attempted,
        failed,
        ..Outcome::default()
    };
    let m = &mut o.metrics;
    m.insert("wall_s", wall);
    m.insert("vector_cycles", first.flow.tours.stats().total_edge_traversals as f64);
    m.insert("replay_cycles_per_s", quantile(&replay_rates, 0.5));
    m.insert("peak_rss_bytes", peak_rss_bytes("self").ok_or("no /proc/self/status")?);
    m.insert("setup_s", setup_s);
    m.insert("requests_per_s", (traces + Bug::ALL.len() as u64) as f64 / wall);
    m.insert("warm_p50_ms", quantile(&verdicts, 0.5));

    let stats = &last.flow.enumd.stats;
    let gs = &last.flow.enumd.graph_stats;
    let ts = last.flow.tours.stats();
    let stage_sum =
        last.flow.compile_seconds + stats.elapsed.as_secs_f64() + ts.generation_time.as_secs_f64();
    m.insert("verilog.model_build_ms", model_build.as_secs_f64() * 1e3);
    m.insert("exec.compile_s", last.flow.compile_seconds);
    m.insert("fsm.enumerate_s", stats.elapsed.as_secs_f64());
    m.insert(
        "fsm.ns_per_transition",
        stats.elapsed.as_secs_f64() * 1e9 / stats.transitions_evaluated.max(1) as f64,
    );
    m.insert("fsm.transitions_evaluated", stats.transitions_evaluated as f64);
    m.insert("fsm.states", stats.states as f64);
    m.insert("fsm.edges", stats.edges as f64);
    m.insert("graph.builder_peak_bytes", gs.builder_peak_bytes as f64);
    m.insert("graph.csr_bytes", gs.graph_bytes as f64);
    m.insert("graph.suppressed_duplicates", gs.suppressed_duplicates as f64);
    m.insert("tour.generate_s", ts.generation_time.as_secs_f64());
    m.insert("tour.traces", ts.traces as f64);
    m.insert("stimgen.map_s", last.map.as_secs_f64());
    m.insert(
        "stimgen.instructions",
        last.stimuli.iter().map(|s| s.instruction_count() as f64).sum(),
    );
    m.insert("sim.replay_s", last.replay.as_secs_f64());
    m.insert("sim.regression_s", last.regression.as_secs_f64());
    m.insert("sim.cycles", last.cycles as f64);
    m.insert("sim.retired", last.retired as f64);
    m.insert("sim.detect_cycles", last.detections.iter().flatten().map(|d| d.1 as f64).sum());
    m.insert("core.flow_overhead_s", last.flow_run.as_secs_f64() - stage_sum);
    Ok(o)
}
