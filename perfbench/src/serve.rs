//! `serve-warm`: an `archval-serve` server with two workers on a Unix
//! socket, driven by a closed loop on one connection. (Two connections
//! saturate both cores of a two-core host, and their throughput then
//! varies by ±15% between runs of one seed; one connection keeps the
//! spread near 5%.)
//!
//! Set-up starts the server as a child process (this binary, re-executed
//! with [`CHILD_FLAG`]), its cache and job directories in a scratch
//! directory, and makes three designs resident with cold `enumerate`
//! requests: `pp-micro`, `pp-standard` and one non-preset spec string.
//! The measured loop then repeats a round of 26 requests in a seeded
//! order, waiting for each request's `done` before sending the next:
//! mostly cheap warm ones (`enumerate` by name and by fingerprint, `fuzz`
//! with a small cycle budget) and two `tour`s. The protocol, admission,
//! per-request model resolution, cache lookup and report persistence do
//! most of the work; enumeration runs only during set-up. The run shuts
//! the server down and waits for it.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use archval::fuzz_campaign;
use archval_exec::StepProgram;
use archval_fsm::{enumerate_with, EnumConfig, EnumResult, Model};
use archval_fuzz::FuzzConfig;
use archval_pp::{pp_control_model, resolve_preset, DesignSpec};
use archval_serve::{
    event_field, line_is_event, listen_unix, CacheConfig, Cmd, ModelRef, Request, Server,
    ServerConfig,
};
use archval_tour::{generate_tours, TourConfig, TourStats};

use crate::trace::Tracer;
use crate::{mix, package_dir, peak_rss_bytes, quantile, Args, Checks, Outcome};

/// First argument that turns this binary into the server child:
/// `perfbench --serve-child <socket> <cache-dir> <jobs-dir>`.
pub const CHILD_FLAG: &str = "--serve-child";

/// Worker threads in the server.
const WORKERS: usize = 2;
/// The resident designs: two presets and one non-preset spec string.
const DESIGNS: [&str; 3] = ["pp-micro", "pp-standard", "beats=2,ways=2,policy=lru,spill=2"];
/// Per-round requests for each design: `(kind, count)`. Tours run on
/// `pp-micro` and the spec design only (see [`TOUR_DESIGNS`]).
const MIX: [(Kind, usize); 3] =
    [(Kind::EnumerateNamed, 3), (Kind::EnumerateFingerprint, 3), (Kind::Fuzz, 2)];
/// Designs that get one `tour` per round: the `pp-standard` tour alone
/// would outweigh every other request of the round together.
const TOUR_DESIGNS: [usize; 2] = [0, 2];
/// The fuzz requests' cycle budget.
const FUZZ_CYCLES: u64 = 2_000;
/// How long a connection waits for one event before the run fails.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    EnumerateNamed,
    EnumerateFingerprint,
    Fuzz,
    Tour,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    design: usize,
    seed: u64,
}

/// One request's client-side record.
#[derive(Debug, Clone)]
struct Exchange {
    op: Op,
    sent: Instant,
    accepted: Option<Instant>,
    graph_ready: Option<Instant>,
    report_at: Option<Instant>,
    done: Option<Instant>,
    fingerprint: Option<u64>,
    report: Option<String>,
    /// An `error` or `overloaded` line, if one came.
    refused: Option<String>,
}

impl Exchange {
    fn ok(&self) -> bool {
        self.refused.is_none() && self.report.is_some() && self.done.is_some()
    }

    fn ms(from: Instant, to: Option<Instant>) -> Option<f64> {
        to.map(|t| (t - from).as_secs_f64() * 1e3)
    }
}

/// The round's operations in a seeded order. The mix per design is
/// fixed, so every seed costs the same; the seed picks the order and the
/// fuzz seeds. Every round of a run repeats the same operations.
fn round_ops(seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for design in 0..DESIGNS.len() {
        for (kind, count) in MIX {
            for _ in 0..count {
                let k = ops.len() as u64;
                ops.push(Op { kind, design, seed: mix(seed, 1000 + k) });
            }
        }
    }
    for design in TOUR_DESIGNS {
        ops.push(Op { kind: Kind::Tour, design, seed: 0 });
    }
    // Fisher–Yates with a seed-derived stream
    for i in (1..ops.len()).rev() {
        let j = (mix(seed, 5000 + i as u64) % (i as u64 + 1)) as usize;
        ops.swap(i, j);
    }
    ops
}

/// A line-level client with a read timeout, so a wedged server fails
/// the run instead of hanging it.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn connect(sock: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(sock)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Sends `req` and reads its events until `done`, or until the job is
    /// refused.
    fn exchange(&mut self, op: Op, req: &Request) -> Result<Exchange, String> {
        let sent = Instant::now();
        self.send(&req.to_json())?;
        let mut x = Exchange {
            op,
            sent,
            accepted: None,
            graph_ready: None,
            report_at: None,
            done: None,
            fingerprint: None,
            report: None,
            refused: None,
        };
        loop {
            let line = self.recv()?;
            let now = Instant::now();
            if event_field(&line, "id").as_deref() != Some(req.id.as_str()) {
                continue;
            }
            if line_is_event(&line, "accepted") {
                x.accepted = Some(now);
                x.fingerprint = event_field(&line, "fingerprint")
                    .and_then(|f| u64::from_str_radix(&f, 16).ok());
            } else if line_is_event(&line, "graph_ready") {
                x.graph_ready = Some(now);
            } else if line_is_event(&line, "report") {
                x.report_at = Some(now);
                x.report = event_field(&line, "report");
            } else if line_is_event(&line, "done") {
                x.done = Some(now);
                return Ok(x);
            } else if line_is_event(&line, "error") || line_is_event(&line, "overloaded") {
                x.refused = Some(line);
                return Ok(x);
            }
        }
    }

    /// The server's cache counters: `(hits, misses)`.
    fn cache_counters(&mut self) -> Result<(u64, u64), String> {
        self.send(&Request::new(Cmd::Stats).to_json())?;
        loop {
            let line = self.recv()?;
            if line_is_event(&line, "stats") {
                let field = |k: &str| {
                    event_field(&line, k).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0)
                };
                return Ok((field("hits"), field("snapshot_loads") + field("enumerations")));
            }
        }
    }
}

fn request(op: Op, id: String, fingerprints: &[u64]) -> Request {
    let cmd = match op.kind {
        Kind::EnumerateNamed | Kind::EnumerateFingerprint => Cmd::Enumerate,
        Kind::Fuzz => Cmd::Fuzz,
        Kind::Tour => Cmd::Tour,
    };
    let mut req = Request::new(cmd);
    req.id = id;
    if op.kind == Kind::EnumerateFingerprint {
        req.fingerprint = Some(fingerprints[op.design]);
    } else {
        req.model = Some(ModelRef::Named(DESIGNS[op.design].to_string()));
    }
    if op.kind == Kind::Fuzz {
        req.seed = op.seed;
        req.cycles = Some(FUZZ_CYCLES);
    }
    req
}

/// The server child process; killed and reaped on drop unless it has
/// already exited.
struct ServerProc {
    child: Child,
}

impl ServerProc {
    fn spawn(sock: &Path, cache: &Path, jobs: &Path) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg(CHILD_FLAG)
            .args([sock.as_os_str(), cache.as_os_str(), jobs.as_os_str()])
            .current_dir(package_dir())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        Ok(ServerProc { child })
    }

    /// Waits for the child to exit by itself, up to `grace`.
    fn wait(&mut self, grace: Duration) -> Result<(), String> {
        let until = Instant::now() + grace;
        while Instant::now() < until {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
        Err(format!("server still running {grace:?} after shutdown"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Entry point of the server child.
pub fn child_main(argv: &[String]) -> ExitCode {
    let [sock, cache, jobs] = argv else {
        eprintln!("usage: perfbench {CHILD_FLAG} <socket> <cache-dir> <jobs-dir>");
        return ExitCode::from(2);
    };
    let config = ServerConfig {
        workers: WORKERS,
        cache: CacheConfig { snapshot_dir: Some(PathBuf::from(cache)), ..CacheConfig::default() },
        jobs_dir: Some(PathBuf::from(jobs)),
        ..ServerConfig::default()
    };
    let server = match Server::start(config) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("perfbench server: startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match listen_unix(&server, Path::new(sock)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench server: listener failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The scratch directory of one run, removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(package_dir().join(&self.0));
    }
}

/// In-process reference results for one design, for the checks.
struct Reference {
    model: Model,
    program: StepProgram,
    enumd: EnumResult,
    tours: TourStats,
}

fn spec_of(name: &str) -> Result<DesignSpec, String> {
    resolve_preset(name).map_or_else(|| DesignSpec::parse(name).map_err(|e| e.to_string()), Ok)
}

fn check(
    fingerprints: &[u64],
    exchanges: &[Vec<Exchange>],
    refs: &[Reference],
    checks: &mut Checks,
) -> Result<(), String> {
    let field = |report: &str, k: &str| event_field(report, k).unwrap_or_default();
    let mut fuzz_seen: Vec<(usize, u64, String)> = Vec::new();
    for (round, xs) in exchanges.iter().enumerate() {
        for x in xs {
            let what = || format!("round {round} {:?} on {}", x.op.kind, DESIGNS[x.op.design]);
            checks.require(x.ok(), || format!("{}: {:?}", what(), x.refused));
            checks.require(x.fingerprint == Some(fingerprints[x.op.design]), || {
                format!("{}: accepted fingerprint {:?}", what(), x.fingerprint)
            });
            let Some(report) = &x.report else { continue };
            let r = &refs[x.op.design];
            match x.op.kind {
                Kind::EnumerateNamed | Kind::EnumerateFingerprint => {
                    let s = &r.enumd.stats;
                    let want = [
                        ("states", s.states.to_string()),
                        ("edges", s.edges.to_string()),
                        ("bits_per_state", s.bits_per_state.to_string()),
                        ("transitions_evaluated", s.transitions_evaluated.to_string()),
                        ("max_depth", s.max_depth.to_string()),
                    ];
                    for (k, v) in want {
                        checks
                            .require(field(report, k) == v, || format!("{}: {k} differs", what()));
                    }
                }
                Kind::Tour => {
                    let s = &r.tours;
                    let want = [
                        ("traces", s.traces.to_string()),
                        ("total_edge_traversals", s.total_edge_traversals.to_string()),
                        ("total_instructions", s.total_instructions.to_string()),
                        ("longest_trace_edges", s.longest_trace_edges.to_string()),
                        ("arcs_total", s.arcs_total.to_string()),
                        ("arcs_covered", s.arcs_covered.to_string()),
                        ("full_coverage", (s.arcs_covered == s.arcs_total).to_string()),
                    ];
                    for (k, v) in want {
                        checks
                            .require(field(report, k) == v, || format!("{}: {k} differs", what()));
                    }
                }
                Kind::Fuzz => {
                    // each distinct request is recomputed once; repeats in
                    // later rounds must be byte-identical to it
                    if let Some((_, _, seen)) =
                        fuzz_seen.iter().find(|(d, s, _)| *d == x.op.design && *s == x.op.seed)
                    {
                        checks.require(seen == report, || format!("{}: repeat differs", what()));
                        continue;
                    }
                    let config = FuzzConfig {
                        cycle_budget: FUZZ_CYCLES,
                        seed: x.op.seed,
                        threads: 1,
                        ..FuzzConfig::default()
                    };
                    let want = fuzz_campaign(&r.model, Some(&r.program), &r.enumd, config)
                        .map_err(|e| e.to_string())?;
                    let want = serde_json::to_string(&want).map_err(|e| e.to_string())?;
                    checks.require(&want == report, || format!("{}: report differs", what()));
                    fuzz_seen.push((x.op.design, x.op.seed, report.clone()));
                }
            }
        }
    }
    Ok(())
}

pub fn run(args: &Args, tracer: &Tracer, started: Instant) -> Result<Outcome, String> {
    // set-up: a scratch directory, the server, three resident designs
    let rel = PathBuf::from("runs").join(format!("serve-{}", std::process::id()));
    let scratch = Scratch(rel.clone());
    let dir = package_dir().join(&rel);
    for sub in ["cache", "jobs"] {
        std::fs::create_dir_all(dir.join(sub)).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    // the socket path is relative to the package directory (both
    // processes work there), which keeps it under the sun_path limit
    std::env::set_current_dir(package_dir()).map_err(|e| format!("chdir: {e}"))?;
    let sock = rel.join("s.sock");
    let mut server = ServerProc::spawn(&sock, &rel.join("cache"), &rel.join("jobs"))?;
    let connect_by = Instant::now() + Duration::from_secs(30);
    let mut conn0 = loop {
        match Conn::connect(&sock) {
            Ok(c) => break c,
            Err(_) if Instant::now() < connect_by => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => return Err(format!("connecting to the server: {e}")),
        }
    };
    let mut cold_s = 0.0;
    let mut fingerprints = Vec::new();
    let mut cold = Vec::new();
    for (i, name) in DESIGNS.iter().enumerate() {
        let op = Op { kind: Kind::EnumerateNamed, design: i, seed: 0 };
        let mut req = Request::new(Cmd::Enumerate);
        req.id = format!("cold-{i}");
        req.model = Some(ModelRef::Named((*name).to_string()));
        let x = tracer.span("serve.cold_enumerate", || conn0.exchange(op, &req))?;
        cold_s += Exchange::ms(x.sent, x.graph_ready).unwrap_or(0.0) / 1e3;
        fingerprints
            .push(x.fingerprint.ok_or_else(|| format!("no fingerprint for {name}: {x:?}"))?);
        cold.push(x);
    }
    let setup_s = started.elapsed().as_secs_f64();
    let mut conn = conn0;
    let (hits0, _) = conn.cache_counters()?;

    // the measured loop: whole rounds until --seconds have passed
    let ops = round_ops(args.seed);
    let mut exchanges: Vec<Vec<Exchange>> = Vec::new();
    let t_loop = Instant::now();
    tracer.span("bench.loop", || -> Result<(), String> {
        let parent = tracer.current();
        while exchanges.is_empty() || t_loop.elapsed().as_secs_f64() < args.seconds {
            let round = exchanges.len();
            let mut xs = Vec::with_capacity(ops.len());
            for (i, op) in ops.iter().enumerate() {
                let x =
                    conn.exchange(*op, &request(*op, format!("r{round}-{i}"), &fingerprints))?;
                let id = tracer.record("serve.request", parent, x.sent, x.done.unwrap_or(x.sent));
                let mut at = x.sent;
                for (name, to) in [
                    ("serve.admit_resolve", x.accepted),
                    ("serve.graph", x.graph_ready),
                    ("serve.run_persist", x.report_at),
                    ("serve.done", x.done),
                ] {
                    if let Some(to) = to {
                        tracer.record(name, Some(id), at, to);
                        at = to;
                    }
                }
                xs.push(x);
            }
            exchanges.push(xs);
        }
        Ok(())
    })?;
    let loop_s = t_loop.elapsed().as_secs_f64();
    let (hits1, misses) = conn.cache_counters()?;

    // shut down, and read the server's peak memory just before it goes
    let server_rss = peak_rss_bytes(&server.child.id().to_string());
    conn.send(&Request::new(Cmd::Shutdown).to_json())?;
    drop(conn);
    server.wait(Duration::from_secs(30))?;
    drop(scratch);

    // checks, against in-process enumerations, tours and fuzz runs
    let mut refs = Vec::new();
    let mut build_ms = Vec::new();
    for name in DESIGNS {
        let spec = spec_of(name)?;
        let mut times = Vec::new();
        let mut model = None;
        for _ in 0..5 {
            let t = Instant::now();
            model = Some(pp_control_model(&spec).map_err(|e| e.to_string())?);
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        build_ms.push(quantile(&times, 0.5));
        let model = model.expect("built five times");
        let program = StepProgram::compile(&model);
        let enumd =
            enumerate_with(&model, &EnumConfig::default(), &program).map_err(|e| e.to_string())?;
        let tours = generate_tours(&enumd.graph, &TourConfig::default()).stats().clone();
        refs.push(Reference { model, program, enumd, tours });
    }
    let mut checks = Checks::default();
    for (i, r) in refs.iter().enumerate() {
        checks.require(r.model.fingerprint() == fingerprints[i], || {
            format!("{}: accepted fingerprint is not the model's", DESIGNS[i])
        });
    }
    check(&fingerprints, std::slice::from_ref(&cold), &refs, &mut checks)?;
    check(&fingerprints, &exchanges, &refs, &mut checks)?;

    let all: Vec<&Exchange> = exchanges.iter().flatten().collect();
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|x| !x.ok()).count() as u64;
    let latencies: Vec<f64> = all.iter().filter_map(|x| Exchange::ms(x.sent, x.done)).collect();
    let fuzz: Vec<&&Exchange> = all.iter().filter(|x| x.op.kind == Kind::Fuzz).collect();
    let fuzz_cycles: f64 = fuzz
        .iter()
        .filter_map(|x| x.report.as_deref().and_then(|r| event_field(r, "cycles")))
        .filter_map(|c| c.parse::<f64>().ok())
        .sum();
    let fuzz_run_s: f64 =
        fuzz.iter().filter_map(|x| Some((x.report_at? - x.graph_ready?).as_secs_f64())).sum();
    let tour_cycles: f64 = exchanges[0]
        .iter()
        .filter(|x| x.op.kind == Kind::Tour)
        .filter_map(|x| x.report.as_deref().and_then(|r| event_field(r, "total_edge_traversals")))
        .filter_map(|c| c.parse::<f64>().ok())
        .sum();

    let mut o =
        Outcome { correct: checks.passed("serve-warm"), attempted, failed, ..Outcome::default() };
    let m = &mut o.metrics;
    m.insert("wall_s", loop_s / exchanges.len() as f64);
    m.insert("vector_cycles", tour_cycles);
    m.insert("replay_cycles_per_s", fuzz_cycles / fuzz_run_s);
    m.insert("peak_rss_bytes", server_rss.ok_or("no status for the server process")?);
    m.insert("setup_s", setup_s);
    m.insert("requests_per_s", attempted as f64 / loop_s);
    m.insert("warm_p50_ms", quantile(&latencies, 0.5));

    let median_ms = |pick: &dyn Fn(&Exchange) -> Option<f64>| {
        quantile(&all.iter().filter_map(|x| pick(x)).collect::<Vec<_>>(), 0.5)
    };
    let run_ms = |kinds: &[Kind]| {
        median_ms(&|x: &Exchange| {
            if kinds.contains(&x.op.kind) {
                Some((x.report_at? - x.graph_ready?).as_secs_f64() * 1e3)
            } else {
                None
            }
        })
    };
    m.insert("verilog.model_build_ms", build_ms.iter().sum::<f64>() / build_ms.len() as f64);
    m.insert(
        "serve.to_accepted_ms.named",
        median_ms(&|x: &Exchange| {
            (x.op.kind != Kind::EnumerateFingerprint)
                .then(|| Exchange::ms(x.sent, x.accepted))
                .flatten()
        }),
    );
    m.insert(
        "serve.to_accepted_ms.fingerprint",
        median_ms(&|x: &Exchange| {
            (x.op.kind == Kind::EnumerateFingerprint)
                .then(|| Exchange::ms(x.sent, x.accepted))
                .flatten()
        }),
    );
    m.insert(
        "serve.to_graph_ready_ms",
        median_ms(&|x: &Exchange| Exchange::ms(x.sent, x.graph_ready)),
    );
    m.insert("serve.run_ms.enumerate", run_ms(&[Kind::EnumerateNamed, Kind::EnumerateFingerprint]));
    m.insert("serve.run_ms.fuzz", run_ms(&[Kind::Fuzz]));
    m.insert("serve.run_ms.tour", run_ms(&[Kind::Tour]));
    m.insert("serve.cache_hits", (hits1 - hits0) as f64 / exchanges.len() as f64);
    m.insert("serve.cache_misses", misses as f64);
    m.insert("serve.cold_enumerate_s", cold_s);
    Ok(o)
}
