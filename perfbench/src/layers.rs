//! Per-layer metrics of a traced run.
//!
//! Every layer is measured from outside, by timing calls into its
//! public functions: spans inside the traced loop where the loop calls
//! that layer itself, and otherwise replays of the workload's own
//! requests ([`SAMPLE`] of one round) through each layer in turn.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use cfva_core::plan::{AccessPlan, Strategy};
use cfva_core::{ModuleId, VectorSpec};
use cfva_memsim::{run_multi, AccessStats};
use cfva_serve::api::{Request, Response};
use cfva_serve::runner::BatchRunner;
use cfva_serve::service::{Service, ServiceConfig};
use cfva_wire::json::{self, ClientFrame, ServerFrame};

use crate::check::session;
use crate::measure::{median, quantile, Recorder};
use crate::reference::{self, family_sweep, plan_streams};
use crate::run::{counter_delta, prime, Counters, Metric, Rig};
use crate::stream::{specs, Kind, WireOp, Workload};

/// Requests of one round replayed through each layer.
pub const SAMPLE: usize = 1024;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time and work accumulated per layer.
#[derive(Debug, Default)]
pub struct Profile {
    plan_ns: f64,
    plan_elems: u64,
    map_ns: f64,
    map_elems: u64,
    run_ns: [f64; 2],
    run_elems: [u64; 2],
    runs: [u64; 2],
    sim_cycles: u64,
    sim_elems: u64,
    multi_us: Vec<f64>,
    wire_submit_us: Vec<f64>,
    wire_wait_us: Vec<f64>,
}

impl Profile {
    /// One `Planner::plan_into` call over `elems` elements.
    pub fn plan(&mut self, d: Duration, elems: u64) {
        self.plan_ns += d.as_secs_f64() * 1e9;
        self.plan_elems += elems;
    }

    /// One `ModuleMap::map_stride_into` call over `elems` elements.
    pub fn map(&mut self, d: Duration, elems: u64) {
        self.map_ns += d.as_secs_f64() * 1e9;
        self.map_elems += elems;
    }

    /// One `BatchRunner::run_plan` call and its statistics: index 0
    /// for a conflict-free access, 1 for a conflicted one.
    pub fn run(&mut self, d: Duration, stats: &AccessStats) {
        let conflicted = usize::from(stats.conflicts > 0 || stats.stall_cycles > 0);
        self.run_ns[conflicted] += d.as_secs_f64() * 1e9;
        self.run_elems[conflicted] += stats.elements;
        self.runs[conflicted] += 1;
        self.sim_cycles += stats.latency;
        self.sim_elems += stats.elements;
    }

    /// One `WireClient::submit` call.
    pub fn wire_submit(&mut self, d: Duration) {
        self.wire_submit_us.push(us(d));
    }

    /// One `WireClient::wait` call.
    pub fn wire_wait(&mut self, d: Duration) {
        self.wire_wait_us.push(us(d));
    }
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// The vector accesses a request names explicitly, with their
/// strategies. Efficiency requests draw theirs inside the session.
fn accesses(request: &Request) -> Vec<(VectorSpec, Strategy)> {
    match request {
        Request::Measure { vec, strategy, .. } => vec![(*vec, *strategy)],
        Request::MeasureBatch { accesses, .. } => accesses.clone(),
        Request::FamilySweep {
            len, max_x, sigma, ..
        } => family_sweep(*len, *max_x, *sigma)
            .into_iter()
            .map(|(_, vec)| (vec, Strategy::Auto))
            .collect(),
        Request::Efficiency { .. } => Vec::new(),
        Request::MultiStream {
            streams, strategy, ..
        } => streams.iter().map(|v| (*v, *strategy)).collect(),
    }
}

fn sessions() -> (Vec<String>, Vec<BatchRunner>) {
    let specs = specs();
    let runners = specs.iter().map(|s| session(s)).collect();
    (specs, runners)
}

fn spec_ix(specs: &[String], request: &Request) -> usize {
    specs
        .iter()
        .position(|s| s == request.spec())
        .expect("every request names a registered spec")
}

/// cfva-core and cfva-memsim: times `map_stride_into`, and unless the
/// traced loop already timed them, `plan_into` and `run_plan`, on
/// every access the requests name, and `run_multi` on every
/// multi-stream request's plans. A first untimed pass warms the
/// sessions.
fn decompose(requests: &[Request], profile: &mut Profile, plan_and_run: bool) {
    let (specs, mut runners) = sessions();
    let mut plan = AccessPlan::new();
    let mut modules = Vec::new();
    for timed in [false, true] {
        for request in requests {
            let runner = &mut runners[spec_ix(&specs, request)];
            for (vec, strategy) in accesses(request) {
                modules.resize(vec.len() as usize, ModuleId::new(0));
                let t0 = Instant::now();
                runner.planner().map().map_stride_into(
                    vec.base(),
                    vec.stride().get(),
                    &mut modules,
                );
                let t1 = Instant::now();
                if timed {
                    profile.map(t1 - t0, vec.len());
                }
                if !plan_and_run {
                    continue;
                }
                let planned = runner.planner().plan_into(&vec, strategy, &mut plan);
                let t2 = Instant::now();
                if planned.is_ok() {
                    let stats = runner.run_plan(&plan);
                    if timed {
                        profile.plan(t2 - t1, vec.len());
                        profile.run(t2.elapsed(), stats);
                    }
                }
            }
            if let Request::MultiStream {
                streams,
                strategy,
                policy,
                ..
            } = request
            {
                let plans = plan_streams(runner, streams, *strategy);
                let refs: Vec<&AccessPlan> = plans.iter().collect();
                let t0 = Instant::now();
                black_box(run_multi(runner.mem(), &refs, *policy)).ok();
                if timed {
                    profile.multi_us.push(us(t0.elapsed()));
                }
            }
        }
    }
}

/// The end-to-end segments of a traced run.
#[derive(Debug)]
pub struct Segments<'a> {
    /// The untraced half.
    pub plain: &'a Recorder,
    /// The traced half.
    pub traced: &'a Recorder,
    /// CPU time of all threads during the untraced half.
    pub cpu_ns: u64,
    /// Service counters before and after both halves, for the
    /// workloads whose loop runs through the service.
    pub cache: Option<(
        cfva_serve::service::ServiceStats,
        cfva_serve::service::ServiceStats,
    )>,
}

/// Per-kind sample lists.
type ByKind = BTreeMap<Kind, Vec<f64>>;

fn kind_p50(samples: &ByKind, kind: Kind) -> f64 {
    samples.get(&kind).map_or(0.0, |v| median(v))
}

/// What the in-process replays measured.
struct InProcess {
    responses: Vec<Response>,
    exec: ByKind,
    roundtrip: ByKind,
    roundtrip_each: Vec<f64>,
    submit: Vec<f64>,
    handoff: Vec<f64>,
}

/// Replays the requests in process: warm direct execution, cached
/// `Service` round trips (after priming `hot`), uncached round trips.
fn in_process(requests: &[Request], hot: &[WireOp]) -> Result<InProcess, String> {
    let (specs, mut runners) = sessions();
    for request in requests {
        let _ = reference::execute(&mut runners[spec_ix(&specs, request)], request);
    }
    let mut exec = ByKind::new();
    let mut exec_each = Vec::with_capacity(requests.len());
    let mut responses = Vec::with_capacity(requests.len());
    for request in requests {
        let t0 = Instant::now();
        let response = reference::execute(&mut runners[spec_ix(&specs, request)], request);
        let d = us(t0.elapsed());
        exec.entry(Kind::of(request)).or_default().push(d);
        exec_each.push(d);
        responses.push(response);
    }

    let wait = |ticket: cfva_serve::service::ServeTicket| {
        ticket
            .wait()
            .map_err(|e| format!("in-process request failed: {e}"))
    };
    let service = Service::new(ServiceConfig::with_workers(1));
    for op in hot {
        wait(
            service
                .submit(op.request.clone())
                .map_err(|e| e.to_string())?,
        )?;
    }
    let mut roundtrip = ByKind::new();
    let mut roundtrip_each = Vec::with_capacity(requests.len());
    let mut submit = Vec::with_capacity(requests.len());
    for request in requests {
        let t0 = Instant::now();
        let ticket = service.submit(request.clone()).map_err(|e| e.to_string())?;
        submit.push(us(t0.elapsed()));
        wait(ticket)?;
        let d = us(t0.elapsed());
        roundtrip.entry(Kind::of(request)).or_default().push(d);
        roundtrip_each.push(d);
    }
    service.shutdown();

    let service = Service::new(ServiceConfig::with_workers(1));
    let mut handoff = Vec::with_capacity(requests.len());
    for (request, exec) in requests.iter().zip(&exec_each) {
        let t0 = Instant::now();
        let ticket = service
            .submit_uncached(request.clone())
            .map_err(|e| e.to_string())?;
        wait(ticket)?;
        handoff.push(us(t0.elapsed()) - exec);
    }
    service.shutdown();
    Ok(InProcess {
        responses,
        exec,
        roundtrip,
        roundtrip_each,
        submit,
        handoff,
    })
}

/// Codec time of each request's frames, `[encode request, decode
/// request, encode response, decode response]` in microseconds, and
/// the frame sizes.
///
/// # Errors
///
/// A frame that does not decode.
fn codec(requests: &[Request], responses: &[Response]) -> Result<Timings, String> {
    let mut times = Vec::with_capacity(requests.len());
    let mut sizes = Vec::with_capacity(requests.len());
    for (id, (request, response)) in requests.iter().zip(responses).enumerate() {
        let submit = ClientFrame::Submit {
            id: id as u64,
            request: request.clone(),
            budget: None,
        };
        let result = ServerFrame::Result {
            id: id as u64,
            result: Ok(response.clone()),
        };
        let t0 = Instant::now();
        let req_text = json::encode_client_frame(&submit);
        let t1 = Instant::now();
        let decoded = json::decode_client_frame(&req_text);
        let t2 = Instant::now();
        let resp_text = json::encode_server_frame(&result);
        let t3 = Instant::now();
        let back = json::decode_server_frame(&resp_text);
        let t4 = Instant::now();
        black_box(decoded.map_err(|e| format!("request frame does not decode: {e:?}"))?);
        black_box(back.map_err(|e| format!("response frame does not decode: {e:?}"))?);
        times.push([us(t1 - t0), us(t2 - t1), us(t3 - t2), us(t4 - t3)]);
        sizes.push((req_text.len(), resp_text.len()));
    }
    Ok((times, sizes))
}

/// Per request: codec microseconds and frame sizes.
type Timings = (Vec<[f64; 4]>, Vec<(usize, usize)>);

/// Wire round trips, one request at a time, on a fresh loopback rig
/// primed like the workload. Returns per-request microseconds and the
/// service counters of the replay; with `spans`, also times the
/// client's submit and wait calls.
fn wire_replay(
    requests: &[Request],
    hot: &[WireOp],
    mut spans: Option<&mut Profile>,
) -> Result<(Vec<f64>, Counters), String> {
    let mut rig = Rig::start()?;
    prime(&mut rig.client, hot)?;
    let before = rig.server.stats();
    let mut each = Vec::with_capacity(requests.len());
    for request in requests {
        let t0 = Instant::now();
        let ticket = rig
            .client
            .submit(request.clone())
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        rig.client
            .wait(ticket)
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
        if let Some(p) = spans.as_deref_mut() {
            p.wire_submit(t1 - t0);
            p.wire_wait(t1.elapsed());
        }
        each.push(us(t0.elapsed()));
    }
    let counters = counter_delta(&before, &rig.server.stats());
    rig.stop();
    Ok((each, counters))
}

/// Every per-layer metric of a traced run of `workload`. `requests`
/// is the replay sample, `hot` the requests the workload primes its
/// cache with, `profile` the spans of the traced loop.
///
/// # Errors
///
/// A replay request that fails, or a rig that cannot start.
pub fn report(
    workload: Workload,
    requests: &[Request],
    hot: &[WireOp],
    mut profile: Profile,
    seg: Segments<'_>,
) -> Result<Vec<Metric>, String> {
    decompose(requests, &mut profile, workload != Workload::Sweep);
    let ip = in_process(requests, hot)?;
    let (codec_times, sizes) = codec(requests, &ip.responses)?;
    // A loop that does not cross the wire (the sweep) takes its client
    // spans from the replay.
    let spans = profile.wire_submit_us.is_empty().then_some(&mut profile);
    let (wire_rt, replay_counters) = wire_replay(requests, hot, spans)?;
    let transport: Vec<f64> = wire_rt
        .iter()
        .zip(&ip.roundtrip_each)
        .zip(&codec_times)
        .map(|((wire, inproc), c)| wire - inproc - c.iter().sum::<f64>())
        .collect();
    let codec_p50 = |i: usize| median(&codec_times.iter().map(|c| c[i]).collect::<Vec<_>>());
    let mean = |v: Vec<usize>| ratio(v.iter().sum::<usize>() as f64, v.len() as u64);

    let p = &profile;
    let mut m = vec![
        Metric::new(
            "cfva-core.plan_ns_per_elem",
            "ns",
            ratio(p.plan_ns, p.plan_elems),
        ),
        Metric::new(
            "cfva-core.map_ns_per_elem",
            "ns",
            ratio(p.map_ns, p.map_elems),
        ),
        Metric::new(
            "cfva-memsim.run_ns_per_elem_cf",
            "ns",
            ratio(p.run_ns[0], p.run_elems[0]),
        ),
        Metric::new(
            "cfva-memsim.run_ns_per_elem_conflicted",
            "ns",
            ratio(p.run_ns[1], p.run_elems[1]),
        ),
        Metric::new("cfva-memsim.runs_cf", "count", p.runs[0] as f64),
        Metric::new("cfva-memsim.runs_conflicted", "count", p.runs[1] as f64),
        Metric::new("cfva-memsim.multi_us_p50", "us", median(&p.multi_us)),
        Metric::new(
            "cfva-memsim.sim_cycles_per_elem",
            "cycles",
            ratio(p.sim_cycles as f64, p.sim_elems),
        ),
        Metric::new("cfva-serve.submit_us_p50", "us", quantile(&ip.submit, 0.50)),
        Metric::new("cfva-serve.submit_us_p99", "us", quantile(&ip.submit, 0.99)),
    ];
    for kind in Kind::ALL {
        let name = format!("cfva-serve.roundtrip_us_p50.{}", kind.name());
        m.push(Metric::new(name, "us", kind_p50(&ip.roundtrip, kind)));
    }
    for kind in Kind::ALL {
        let name = format!("cfva-serve.exec_us_p50.{}", kind.name());
        m.push(Metric::new(name, "us", kind_p50(&ip.exec, kind)));
    }
    m.push(Metric::new(
        "cfva-serve.handoff_us_p50",
        "us",
        median(&ip.handoff),
    ));
    let counters = match &seg.cache {
        Some((before, after)) => counter_delta(before, after),
        None => replay_counters,
    };
    for (name, value) in counters {
        let unit = if name.ends_with("ratio") {
            "ratio"
        } else {
            "count"
        };
        m.push(Metric::new(name, unit, value));
    }
    m.extend([
        Metric::new("cfva-wire.encode_request_us_p50", "us", codec_p50(0)),
        Metric::new("cfva-wire.decode_request_us_p50", "us", codec_p50(1)),
        Metric::new("cfva-wire.encode_response_us_p50", "us", codec_p50(2)),
        Metric::new("cfva-wire.decode_response_us_p50", "us", codec_p50(3)),
        Metric::new(
            "cfva-wire.request_bytes_mean",
            "bytes",
            mean(sizes.iter().map(|s| s.0).collect()),
        ),
        Metric::new(
            "cfva-wire.response_bytes_mean",
            "bytes",
            mean(sizes.iter().map(|s| s.1).collect()),
        ),
        Metric::new("cfva-wire.submit_us_p50", "us", median(&p.wire_submit_us)),
        Metric::new("cfva-wire.wait_us_p50", "us", median(&p.wire_wait_us)),
        Metric::new("cfva-wire.transport_us_p50", "us", median(&transport)),
        Metric::new(
            "proc.cpu_ms_per_kop",
            "ms",
            ratio(seg.cpu_ns as f64 / 1e6, seg.plain.ops()) * 1e3,
        ),
        Metric::new(
            "trace.overhead_pct",
            "%",
            (seg.plain.ops_per_s() / seg.traced.ops_per_s() - 1.0) * 100.0,
        ),
    ]);
    Ok(m)
}
