//! The benchmark's own serial reference for every request kind, and
//! the digests that compare answers.
//!
//! [`execute`] runs a request directly on a `BatchRunner` session with
//! the public planner, engine and multi-stream functions, the way a
//! fresh serial caller would. It shares no code with the service's
//! dispatch, so a served answer that equals it was computed right.

use cfva_core::equiv::occupancy_signature;
use cfva_core::plan::{AccessPlan, Strategy};
use cfva_core::{Stride, VectorSpec};
use cfva_memsim::{run_multi, AccessStats, IssuePolicy};
use cfva_serve::api::{
    Estimator, FamilyPoint, MultiStreamOutcome, Request, Response, SchedulePlan, StreamSummary,
};
use cfva_serve::runner::BatchRunner;
use cfva_serve::workload::StrideSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Executes `request` on `runner`, which must be a session of the
/// request's spec.
pub fn execute(runner: &mut BatchRunner, request: &Request) -> Response {
    match request {
        Request::Measure { vec, strategy, .. } => {
            Response::Measured(runner.measure_owned(vec, *strategy))
        }
        Request::MeasureBatch { accesses, .. } => Response::Batch(
            accesses
                .iter()
                .map(|(vec, strategy)| runner.measure_owned(vec, *strategy))
                .collect(),
        ),
        Request::FamilySweep {
            len, max_x, sigma, ..
        } => Response::FamilySweep(
            family_sweep(*len, *max_x, *sigma)
                .into_iter()
                .map(|(x, vec)| {
                    let stats = runner
                        .measure_owned(&vec, Strategy::Auto)
                        .expect("Auto always plans");
                    FamilyPoint {
                        x,
                        stride: vec.stride().get(),
                        latency: stats.latency,
                        conflicts: stats.conflicts,
                        stall_cycles: stats.stall_cycles,
                        cycles_per_element: runner.cycles_per_element(&stats),
                    }
                })
                .collect(),
        ),
        Request::Efficiency {
            strategy,
            len,
            estimator,
            seed,
            ..
        } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            Response::Efficiency(match *estimator {
                Estimator::MonteCarlo {
                    samples,
                    max_x,
                    max_sigma,
                } => {
                    let sampler = StrideSampler::new(max_x, max_sigma);
                    runner.simulated_efficiency(*strategy, *len, samples, &sampler, &mut rng)
                }
                Estimator::Stratified { max_x, per_family } => {
                    runner.stratified_efficiency(*strategy, *len, max_x, per_family, &mut rng)
                }
            })
        }
        Request::MultiStream {
            streams,
            strategy,
            policy,
            schedule,
            ..
        } => Response::MultiStream(multi_stream(runner, streams, *strategy, *policy, *schedule)),
    }
}

/// The accesses of a family sweep: stride `sigma · 2^x` from base 16
/// for every family `x ≤ max_x`.
pub fn family_sweep(len: u64, max_x: u32, sigma: i64) -> Vec<(u32, VectorSpec)> {
    (0..=max_x)
        .map(|x| {
            let stride = Stride::from_parts(sigma, x).expect("validated sweep stride");
            let vec =
                VectorSpec::with_stride(16u64.into(), stride, len).expect("validated sweep access");
            (x, vec)
        })
        .collect()
}

/// Plans every stream with `strategy`, falling back to `Auto` for a
/// stream the strategy cannot serve.
pub fn plan_streams(
    runner: &BatchRunner,
    streams: &[VectorSpec],
    strategy: Strategy,
) -> Vec<AccessPlan> {
    let planner = runner.planner();
    streams
        .iter()
        .map(|vec| {
            planner
                .plan(vec, strategy)
                .or_else(|_| planner.plan(vec, Strategy::Auto))
                .expect("Auto always plans")
        })
        .collect()
}

/// Partitions streams into co-run waves: one wave, arrival-order
/// chunks, or greedy first-fit on the pairwise predicted conflict
/// score (module count × signature overlap, in thousandths).
fn waves(
    runner: &BatchRunner,
    streams: &[VectorSpec],
    schedule: SchedulePlan,
) -> (Vec<Vec<usize>>, impl Fn(usize, usize) -> u64) {
    let map = runner.planner().map();
    let modules = map.module_count() as f64;
    let signatures: Vec<_> = streams
        .iter()
        .map(|vec| occupancy_signature(map, vec))
        .collect();
    let score = move |i: usize, j: usize| {
        (modules * signatures[i].overlap(&signatures[j]) * 1000.0).round() as u64
    };
    let n = streams.len();
    let waves = match schedule {
        SchedulePlan::Together => vec![(0..n).collect()],
        SchedulePlan::FifoWaves { width } => (0..n)
            .collect::<Vec<_>>()
            .chunks(width.max(1) as usize)
            .map(<[usize]>::to_vec)
            .collect(),
        SchedulePlan::ConflictAware {
            width,
            max_score_milli,
        } => {
            let mut waves: Vec<Vec<usize>> = Vec::new();
            for i in 0..n {
                let fits = |w: &Vec<usize>| {
                    w.len() < width.max(1) as usize
                        && w.iter().all(|&j| score(i, j) <= u64::from(max_score_milli))
                };
                match waves.iter_mut().find(|w| fits(w)) {
                    Some(w) => w.push(i),
                    None => waves.push(vec![i]),
                }
            }
            waves
        }
    };
    (waves, score)
}

fn multi_stream(
    runner: &mut BatchRunner,
    streams: &[VectorSpec],
    strategy: Strategy,
    policy: IssuePolicy,
    schedule: SchedulePlan,
) -> MultiStreamOutcome {
    let plans = plan_streams(runner, streams, strategy);
    let (waves, score) = waves(runner, streams, schedule);
    let mut per_stream = vec![None; streams.len()];
    let mut wave_makespans = Vec::new();
    let (mut predicted_conflicts_milli, mut actual_conflicts) = (0, 0);
    for (wave_ix, wave) in waves.iter().enumerate() {
        let refs: Vec<&AccessPlan> = wave.iter().map(|&i| &plans[i]).collect();
        let stats = run_multi(runner.mem(), &refs, policy).expect("valid co-run");
        actual_conflicts += stats.conflicts;
        for (pos, &i) in wave.iter().enumerate() {
            predicted_conflicts_milli += wave[..pos].iter().map(|&j| score(i, j)).sum::<u64>();
        }
        for (&i, s) in wave.iter().zip(&stats.streams) {
            per_stream[i] = Some(StreamSummary {
                wave: wave_ix as u32,
                elements: s.elements,
                first_issue: s.first_issue,
                latency: s.latency,
                spread: s.spread,
                conflicts: s.conflicts,
                stall_cycles: s.stall_cycles,
            });
        }
        wave_makespans.push(stats.makespan);
    }
    let sequential_baseline = plans.iter().map(|p| runner.run_plan(p).latency).sum();
    MultiStreamOutcome {
        per_stream: per_stream.into_iter().flatten().collect(),
        makespan: wave_makespans.iter().sum(),
        wave_makespans,
        sequential_baseline,
        predicted_conflicts_milli,
        actual_conflicts,
    }
}

/// A 64-bit digest of a value's words (multiply-xorshift mixing; not
/// cryptographic, only a fingerprint for equality).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0x243F_6A88_85A3_08D3)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.0 = (self.0 ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
        self
    }

    /// Mixes a slice of words in, length first.
    pub fn words(&mut self, ws: &[u64]) -> &mut Self {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of the scalar fields and per-module busy cycles of an
/// access: what the sweep loop records per operation (the arrival
/// vector is held to the cycle oracle on a sample instead).
pub fn stats_summary_digest(stats: &AccessStats) -> u64 {
    let mut d = Digest::default();
    d.word(stats.latency)
        .word(stats.elements)
        .word(stats.stall_cycles)
        .word(stats.conflicts)
        .word(stats.max_in_q as u64)
        .words(&stats.module_busy);
    d.finish()
}

fn full_stats(d: &mut Digest, stats: &Option<AccessStats>) {
    match stats {
        None => {
            d.word(0);
        }
        Some(s) => {
            d.word(1).word(stats_summary_digest(s)).words(&s.arrival);
        }
    }
}

fn response_into(d: &mut Digest, response: &Response) {
    match response {
        Response::Measured(stats) => {
            d.word(1);
            full_stats(d, stats);
        }
        Response::Batch(items) => {
            d.word(2).word(items.len() as u64);
            for stats in items {
                full_stats(d, stats);
            }
        }
        Response::FamilySweep(points) => {
            d.word(3).word(points.len() as u64);
            for p in points {
                d.word(u64::from(p.x))
                    .word(p.stride as u64)
                    .word(p.latency)
                    .word(p.conflicts)
                    .word(p.stall_cycles)
                    .word(p.cycles_per_element.to_bits());
            }
        }
        Response::Efficiency(eta) => {
            d.word(4).word(eta.to_bits());
        }
        Response::MultiStream(m) => {
            d.word(5).word(m.per_stream.len() as u64);
            for s in &m.per_stream {
                d.word(u64::from(s.wave))
                    .word(s.elements)
                    .word(s.first_issue)
                    .word(s.latency)
                    .word(s.spread)
                    .word(s.conflicts)
                    .word(s.stall_cycles);
            }
            d.words(&m.wave_makespans)
                .word(m.makespan)
                .word(m.sequential_baseline)
                .word(m.predicted_conflicts_milli)
                .word(m.actual_conflicts);
        }
        Response::Degraded { response, exact } => {
            d.word(6).word(u64::from(*exact));
            response_into(d, response);
        }
    }
}

/// Digest of a whole response, every field and every per-element
/// arrival included.
pub fn response_digest(response: &Response) -> u64 {
    let mut d = Digest::default();
    response_into(&mut d, response);
    d.finish()
}
