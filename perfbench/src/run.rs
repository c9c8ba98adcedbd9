//! Set-up, the timed closed loops, and the end-to-end report.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use cfva_core::plan::{AccessPlan, Strategy};
use cfva_serve::api::Request;
use cfva_serve::runner::BatchRunner;
use cfva_serve::service::{Service, ServiceConfig, ServiceStats};
use cfva_wire::client::WireClient;
use cfva_wire::server::{WireServer, WireServerConfig};
use cfva_wire::WireError;

use crate::check::{self, session, Tracker, Verdict};
use crate::layers::{self, Profile};
use crate::measure::{cpu_ns, median, peak_rss_mb, secs, Recorder};
use crate::reference::stats_summary_digest;
use crate::stream::{self, Scale, Stream, SweepOp, WireOp, Workload};

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the workload's streams.
    pub seed: u64,
    /// Seconds to measure (whole rounds; the last round finishes).
    pub seconds: f64,
    /// `false`: end-to-end metrics. `true`: per-layer metrics from a
    /// traced run.
    pub trace: bool,
    /// Stream sizes.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// A run's checked outcome and its metrics.
#[derive(Debug, Clone)]
pub struct Report {
    /// Attempted and failed operations.
    pub verdict: Verdict,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.verdict.complete,
            self.verdict.attempted,
            self.verdict.failed,
            metrics.join(", ")
        )
    }
}

/// Set-ups per run; the reported `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Requests in flight on the wire connection. `wire_hit` keeps 2: in
/// alternating 6-second runs on the reference machine, 2 in flight
/// spread 8% in `ops_per_s` and 9% in `p99_us` from run to run, 4 in
/// flight 11% and 23%, 8 in flight 31% and 38%, because the client,
/// reader and writer threads then all want the two CPUs at once.
/// `wire_miss` keeps 4, so the one worker always has a request queued.
pub fn window(workload: Workload) -> usize {
    match workload {
        Workload::WireHit => 2,
        _ => 4,
    }
}

/// Runs the benchmark.
///
/// # Errors
///
/// A set-up that cannot complete: the server cannot bind or the client
/// cannot connect, or a priming request fails.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload {
        Workload::Sweep => run_sweep(opts),
        Workload::WireHit => run_wire(opts, stream::hit_stream(opts.seed, opts.scale)),
        Workload::WireMiss => run_wire(opts, stream::miss_stream(opts.seed, opts.scale)),
    }
}

/// Runs whole rounds (at least one) until the recorder is done.
fn rounds(rec: &mut Recorder, mut round: impl FnMut(&mut Recorder) -> bool) {
    let start = Instant::now();
    while round(rec) && !rec.done(secs(start)) {}
}

fn sweep_setup(stream: &Stream<SweepOp>) -> Vec<BatchRunner> {
    let mut runners: Vec<BatchRunner> = stream::specs().iter().map(|s| session(s)).collect();
    for &ix in &stream.order {
        let op = &stream.ops[ix];
        let _ = runners[op.spec].measure(&op.vec, Strategy::Auto);
    }
    runners
}

/// One round of the sweep. With a profile, planning and simulation
/// are timed as separate spans.
fn sweep_round(
    runners: &mut [BatchRunner],
    stream: &Stream<SweepOp>,
    tracker: &mut Tracker,
    rec: &mut Recorder,
    mut profile: Option<&mut Profile>,
    plan: &mut AccessPlan,
) {
    let start = Instant::now();
    let mut elems = 0;
    for &ix in &stream.order {
        let op = &stream.ops[ix];
        let runner = &mut runners[op.spec];
        let t0 = Instant::now();
        let stats = match profile.as_deref_mut() {
            None => runner.measure(&op.vec, Strategy::Auto),
            Some(profile) => {
                let planned = runner.planner().plan_into(&op.vec, Strategy::Auto, plan);
                let t1 = Instant::now();
                profile.plan(t1 - t0, op.vec.len());
                planned.ok().map(|()| {
                    let stats = runner.run_plan(plan);
                    profile.run(t1.elapsed(), stats);
                    stats
                })
            }
        };
        rec.op(t0.elapsed());
        elems += op.vec.len();
        match stats {
            Some(stats) => tracker.answer(ix, stats_summary_digest(stats)),
            None => tracker.error(),
        }
    }
    rec.round(stream.order.len() as u64, elems, secs(start));
}

fn run_sweep(opts: &Options) -> Result<Report, String> {
    let stream = stream::sweep_stream(opts.seed, opts.scale);
    let mut setups = Vec::new();
    let mut runners = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        runners = sweep_setup(&stream);
        setups.push(secs(start));
    }
    let mut tracker = Tracker::new(stream.ops.len());
    let mut plan = AccessPlan::new();
    let mut segment = |seconds: f64, profile: Option<&mut Profile>, tracker: &mut Tracker| {
        let mut rec = Recorder::new(seconds);
        let cpu = cpu_ns();
        let mut profile = profile;
        rounds(&mut rec, |rec| {
            let p = profile.as_deref_mut();
            sweep_round(&mut runners, &stream, tracker, rec, p, &mut plan);
            true
        });
        (rec, cpu_ns() - cpu)
    };
    if !opts.trace {
        let (rec, _) = segment(opts.seconds, None, &mut tracker);
        let rss = peak_rss_mb();
        let start = Instant::now();
        let verdict = check::check_sweep(&stream, &tracker, opts.seed);
        note(opts.workload, &rec, start);
        return Ok(Report {
            verdict,
            metrics: end_to_end(&rec, rss, &setups),
        });
    }
    let (plain, cpu) = segment(opts.seconds / 2.0, None, &mut tracker);
    let mut profile = Profile::default();
    let (traced, _) = segment(opts.seconds / 2.0, Some(&mut profile), &mut tracker);
    let verdict = check::check_sweep(&stream, &tracker, opts.seed);
    let requests: Vec<Request> = stream
        .order
        .iter()
        .map(|&ix| {
            let op = &stream.ops[ix];
            Request::Measure {
                spec: stream::specs()[op.spec].clone(),
                vec: op.vec,
                strategy: Strategy::Auto,
            }
        })
        .collect();
    let metrics = layers::report(
        opts.workload,
        &requests,
        &[],
        profile,
        layers::Segments {
            plain: &plain,
            traced: &traced,
            cpu_ns: cpu,
            cache: None,
        },
    )?;
    Ok(Report { verdict, metrics })
}

/// A service with one worker behind a loopback wire server, and one
/// connected client.
pub struct Rig {
    /// The in-process service.
    pub service: Arc<Service>,
    /// Its TCP front door.
    pub server: WireServer,
    /// The benchmark's connection.
    pub client: WireClient,
}

impl Rig {
    /// Starts the service and server and connects.
    ///
    /// # Errors
    ///
    /// Bind or connect failures.
    pub fn start() -> Result<Rig, String> {
        let service = Arc::new(Service::new(ServiceConfig::with_workers(1)));
        let server = WireServer::bind(
            Arc::clone(&service),
            "127.0.0.1:0",
            WireServerConfig::default(),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let client =
            WireClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Rig {
            service,
            server,
            client,
        })
    }

    /// Closes the connection, drains the server and stops the service.
    pub fn stop(self) {
        drop(self.client);
        self.server.shutdown();
        self.service.shutdown();
    }
}

/// Submits every request once and waits for it; any failure is an
/// error.
///
/// # Errors
///
/// A transport error or an error response.
pub fn prime(client: &mut WireClient, ops: &[WireOp]) -> Result<(), String> {
    for op in ops {
        let ticket = client
            .submit(op.request.clone())
            .map_err(|e| e.to_string())?;
        client
            .wait(ticket)
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Warm-up requests of `wire_miss`, taken from the end of its stream:
/// the cache evicts them before the first timed round reaches them.
fn miss_warmup(scale: Scale) -> usize {
    match scale {
        Scale::Full => 512,
        Scale::Short => 16,
    }
}

fn wire_setup(workload: Workload, stream: &Stream<WireOp>, scale: Scale) -> Result<Rig, String> {
    let mut rig = Rig::start()?;
    let warm: Vec<usize> = match workload {
        Workload::WireHit => {
            prime(&mut rig.client, &stream.ops)?;
            stream.order.clone()
        }
        _ => (stream.ops.len() - miss_warmup(scale)..stream.ops.len()).collect(),
    };
    let mut warm_tracker = Tracker::new(stream.ops.len());
    let mut rec = Recorder::new(0.0);
    pipeline(
        &mut rig.client,
        stream,
        &warm,
        window(workload),
        &mut warm_tracker,
        &mut rec,
        None,
    )
    .map_err(|e| e.to_string())?;
    if warm_tracker.errors() > 0 {
        return Err("warm-up requests failed".into());
    }
    Ok(rig)
}

/// Sends `indices` through `client`, keeping `window` requests in
/// flight, and records each answer. With a profile, the client's
/// submit and wait calls are timed as separate spans.
///
/// # Errors
///
/// A transport error; every request in flight is counted failed.
pub fn pipeline(
    client: &mut WireClient,
    stream: &Stream<WireOp>,
    indices: &[usize],
    window: usize,
    tracker: &mut Tracker,
    rec: &mut Recorder,
    mut profile: Option<&mut Profile>,
) -> Result<(), WireError> {
    let start = Instant::now();
    let mut in_flight = VecDeque::with_capacity(window);
    let mut elems = 0;
    let mut next = indices.iter();
    loop {
        if in_flight.len() < window {
            if let Some(&ix) = next.next() {
                let t0 = Instant::now();
                let submitted = client.submit(stream.ops[ix].request.clone());
                if let Some(p) = profile.as_deref_mut() {
                    p.wire_submit(t0.elapsed());
                }
                match submitted {
                    Ok(ticket) => in_flight.push_back((ticket, ix, t0)),
                    Err(e) => {
                        (0..=in_flight.len()).for_each(|_| tracker.error());
                        return Err(e);
                    }
                }
                continue;
            }
        }
        let Some((ticket, ix, t0)) = in_flight.pop_front() else {
            break;
        };
        let t1 = Instant::now();
        let result = client.wait(ticket);
        if let Some(p) = profile.as_deref_mut() {
            p.wire_wait(t1.elapsed());
        }
        rec.op(t0.elapsed());
        match result {
            Ok(Ok(response)) => {
                elems += stream.ops[ix].elems;
                tracker.response(ix, response);
            }
            Ok(Err(_)) => tracker.error(),
            Err(e) => {
                (0..=in_flight.len()).for_each(|_| tracker.error());
                return Err(e);
            }
        }
    }
    rec.round(indices.len() as u64, elems, secs(start));
    Ok(())
}

fn run_wire(opts: &Options, stream: Stream<WireOp>) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let fresh = wire_setup(opts.workload, &stream, opts.scale)?;
        setups.push(secs(start));
        if let Some(old) = rig.replace(fresh) {
            old.stop();
        }
    }
    let mut rig = rig.expect("at least one set-up");
    let mut tracker = Tracker::new(stream.ops.len());
    let window = window(opts.workload);
    let mut segment = |seconds: f64, mut profile: Option<&mut Profile>, tracker: &mut Tracker| {
        let mut rec = Recorder::new(seconds);
        let cpu = cpu_ns();
        rounds(&mut rec, |rec| {
            let p = profile.as_deref_mut();
            let sent = pipeline(
                &mut rig.client,
                &stream,
                &stream.order,
                window,
                tracker,
                rec,
                p,
            );
            if let Err(e) = &sent {
                eprintln!("transport error, run stopped: {e}");
            }
            sent.is_ok()
        });
        (rec, cpu_ns() - cpu)
    };
    if !opts.trace {
        let (rec, _) = segment(opts.seconds, None, &mut tracker);
        let rss = peak_rss_mb();
        rig.stop();
        let start = Instant::now();
        let verdict = check::check_wire(&stream, &tracker);
        note(opts.workload, &rec, start);
        return Ok(Report {
            verdict,
            metrics: end_to_end(&rec, rss, &setups),
        });
    }
    let before = rig.server.stats();
    let (plain, cpu) = segment(opts.seconds / 2.0, None, &mut tracker);
    let mut profile = Profile::default();
    let (traced, _) = segment(opts.seconds / 2.0, Some(&mut profile), &mut tracker);
    let after = rig.server.stats();
    rig.stop();
    let verdict = check::check_wire(&stream, &tracker);
    let sample: Vec<Request> = stream
        .order
        .iter()
        .take(layers::SAMPLE)
        .map(|&ix| stream.ops[ix].request.clone())
        .collect();
    let hot: Vec<WireOp> = match opts.workload {
        Workload::WireHit => stream.ops.clone(),
        _ => Vec::new(),
    };
    let metrics = layers::report(
        opts.workload,
        &sample,
        &hot,
        profile,
        layers::Segments {
            plain: &plain,
            traced: &traced,
            cpu_ns: cpu,
            cache: Some((before, after)),
        },
    )?;
    Ok(Report { verdict, metrics })
}

/// Tells a reader of standard error what the run timed and how long
/// its check took.
fn note(workload: Workload, rec: &Recorder, check_start: Instant) {
    let (quiet, blocks) = rec.quiet_blocks();
    eprintln!(
        "{}: {} rounds, {} operations; {quiet} of {blocks} blocks quiet, metrics from {:.2} s; checked in {:.2} s",
        workload.name(),
        rec.rounds(),
        rec.ops(),
        rec.seconds(),
        secs(check_start)
    );
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(rec: &Recorder, peak_rss: f64, setups: &[f64]) -> Vec<Metric> {
    vec![
        Metric::new("ops_per_s", "ops/s", rec.ops_per_s()),
        Metric::new("elems_per_s", "elems/s", rec.elems_per_s()),
        Metric::new("p50_us", "us", rec.p50_us()),
        Metric::new("p99_us", "us", rec.p99_us()),
        Metric::new("peak_rss_mb", "MB", peak_rss),
        Metric::new("setup_s", "s", median(setups)),
    ]
}

/// Named cache and robustness counters.
pub type Counters = [(&'static str, f64); 7];

/// Cache and robustness counters between two snapshots.
pub fn counter_delta(before: &ServiceStats, after: &ServiceStats) -> Counters {
    let cache = |s: &ServiceStats| s.cache.unwrap_or_default();
    let (b, a) = (cache(before), cache(after));
    let hits = (a.hits - b.hits) as f64;
    let misses = (a.misses - b.misses) as f64;
    [
        ("cfva-serve.cache_hits", hits),
        ("cfva-serve.cache_misses", misses),
        (
            "cfva-serve.cache_evictions",
            (a.evictions - b.evictions) as f64,
        ),
        (
            "cfva-serve.cache_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        (
            "cfva-serve.retries",
            (after.retries - before.retries) as f64,
        ),
        (
            "cfva-serve.restarts",
            (after.restarts - before.restarts) as f64,
        ),
        (
            "cfva-serve.rejected",
            (after.wire_rejections - before.wire_rejections) as f64,
        ),
    ]
}
