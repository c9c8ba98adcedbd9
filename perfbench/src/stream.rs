//! The seeded operation streams of the three workloads.
//!
//! Every workload is a list of **distinct** operations plus an
//! **order**: one round replays `order`, whose entries index the
//! distinct list. A run repeats whole rounds, so every run attempts the
//! same mix of operations, and the correctness check can verify each
//! distinct operation once and hold every repeat to the first answer.

use cfva_core::mapping::Registry;
use cfva_core::plan::Strategy;
use cfva_core::{Stride, VectorSpec};
use cfva_memsim::IssuePolicy;
use cfva_serve::api::{Estimator, Request, SchedulePlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's stride-family sweep through one `BatchRunner` per
    /// registered map.
    Sweep,
    /// Repeat traffic over TCP: every timed request is a cache hit.
    WireHit,
    /// Cold mixed traffic over TCP: every timed request misses.
    WireMiss,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::WireHit, Workload::WireMiss];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::WireHit => "wire_hit",
            Workload::WireMiss => "wire_miss",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Stream sizes. [`Scale::Full`] is what the benchmark measures;
/// [`Scale::Short`] keeps every kind of operation and every check but
/// shrinks the streams, for the benchmark's own test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A small configuration with the same shape.
    Short,
}

/// The spec whose conflict-free window the sweep check derives from
/// Theorem 1, with its `t` and `s`.
pub const THEOREM1_SPEC: &str = "xor-matched:t=3,s=4";
/// `t` of [`THEOREM1_SPEC`] (module service time `T = 2^t`).
pub const THEOREM1_T: u32 = 3;
/// `s` of [`THEOREM1_SPEC`].
pub const THEOREM1_S: u32 = 4;

/// Largest family exponent of the sweep (families `x = 0..=9`).
pub const SWEEP_MAX_X: u32 = 9;

/// The registered coverage specs, as strings, in registration order.
pub fn specs() -> Vec<String> {
    Registry::builtin()
        .all_specs()
        .iter()
        .map(ToString::to_string)
        .collect()
}

/// Vector lengths of the sweep.
pub fn sweep_lens(scale: Scale) -> &'static [u64] {
    match scale {
        Scale::Full => &[64, 1024, 16384],
        Scale::Short => &[64, 256],
    }
}

/// One sweep access: the index of its spec in [`specs`] and the vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOp {
    /// Index into [`specs`].
    pub spec: usize,
    /// The access, measured under `Strategy::Auto`.
    pub vec: VectorSpec,
}

/// A stream: distinct operations and the order one round replays.
#[derive(Debug, Clone)]
pub struct Stream<T> {
    /// The distinct operations.
    pub ops: Vec<T>,
    /// One round, as indices into `ops`.
    pub order: Vec<usize>,
}

/// A seeded odd part in `±[1, 63]`.
fn odd_sigma(rng: &mut StdRng) -> i64 {
    let sigma = 2 * rng.gen_range(0..32i64) + 1;
    if rng.gen_bool(0.25) {
        -sigma
    } else {
        sigma
    }
}

fn vector(rng: &mut StdRng, x: u32, len: u64) -> VectorSpec {
    let stride = Stride::from_parts(odd_sigma(rng), x).expect("odd sigma, small x");
    // Bases high enough that a negative stride stays addressable.
    let base = (1u64 << 36) + rng.gen_range(0..1u64 << 20);
    VectorSpec::with_stride(base.into(), stride, len).expect("bounded base, stride and length")
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i as u64) as usize;
        items.swap(i, j);
    }
}

/// Accesses per (spec, family, length) cell of the sweep.
pub const SWEEP_PER_CELL: usize = 4;

/// The sweep: every registered spec × families `0..=9` × the sweep
/// lengths, [`SWEEP_PER_CELL`] accesses per cell with seeded odd part
/// and base, replayed in a seeded order.
pub fn sweep_stream(seed: u64, scale: Scale) -> Stream<SweepOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5157_EE95);
    let mut ops = Vec::new();
    for spec in 0..specs().len() {
        for x in 0..=SWEEP_MAX_X {
            for &len in sweep_lens(scale) {
                for _ in 0..SWEEP_PER_CELL {
                    ops.push(SweepOp {
                        spec,
                        vec: vector(&mut rng, x, len),
                    });
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..ops.len()).collect();
    shuffle(&mut rng, &mut order);
    Stream { ops, order }
}

/// The request kinds, in the order per-kind metrics are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// `Request::Measure`.
    Measure,
    /// `Request::MeasureBatch`.
    MeasureBatch,
    /// `Request::FamilySweep`.
    FamilySweep,
    /// `Request::Efficiency`.
    Efficiency,
    /// `Request::MultiStream`.
    MultiStream,
}

impl Kind {
    /// Every kind.
    pub const ALL: [Kind; 5] = [
        Kind::Measure,
        Kind::MeasureBatch,
        Kind::FamilySweep,
        Kind::Efficiency,
        Kind::MultiStream,
    ];

    /// The kind's metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Measure => "measure",
            Kind::MeasureBatch => "measure_batch",
            Kind::FamilySweep => "family_sweep",
            Kind::Efficiency => "efficiency",
            Kind::MultiStream => "multi_stream",
        }
    }

    /// The kind of a request.
    pub fn of(request: &Request) -> Kind {
        match request {
            Request::Measure { .. } => Kind::Measure,
            Request::MeasureBatch { .. } => Kind::MeasureBatch,
            Request::FamilySweep { .. } => Kind::FamilySweep,
            Request::Efficiency { .. } => Kind::Efficiency,
            Request::MultiStream { .. } => Kind::MultiStream,
        }
    }
}

/// One wire request with the vector elements it covers.
#[derive(Debug, Clone)]
pub struct WireOp {
    /// The request.
    pub request: Request,
    /// Vector elements the request's answer covers.
    pub elems: u64,
}

impl WireOp {
    /// The request's kind.
    pub fn kind(&self) -> Kind {
        Kind::of(&self.request)
    }
}

/// Builds one request of `kind` on `spec` at vector length `len`.
/// `slot` counts the requests of the same spec and kind, and spreads
/// their accesses evenly over the families `0..=10`, the estimators,
/// the issue policies and the schedules, so the cost of a stream does
/// not hang on how the seed happens to fall.
fn request(rng: &mut StdRng, kind: Kind, spec: &str, len: u64, slot: usize) -> WireOp {
    let spec = spec.to_string();
    let family = |k: usize| ((3 * slot + k) % 11) as u32;
    match kind {
        Kind::Measure => WireOp {
            request: Request::Measure {
                spec,
                vec: vector(rng, family(0), len),
                strategy: Strategy::Auto,
            },
            elems: len,
        },
        Kind::MeasureBatch => {
            let accesses: Vec<_> = (0..3)
                .map(|k| (vector(rng, family(k), len), Strategy::Auto))
                .collect();
            WireOp {
                elems: len * accesses.len() as u64,
                request: Request::MeasureBatch { spec, accesses },
            }
        }
        Kind::FamilySweep => {
            let max_x = 7;
            WireOp {
                request: Request::FamilySweep {
                    spec,
                    len,
                    max_x,
                    sigma: odd_sigma(rng).abs(),
                },
                elems: len * u64::from(max_x + 1),
            }
        }
        Kind::Efficiency => {
            let (estimator, draws) = if slot.is_multiple_of(2) {
                let samples = 4;
                let estimator = Estimator::MonteCarlo {
                    samples,
                    max_x: 10,
                    max_sigma: 15,
                };
                (estimator, u64::from(samples))
            } else {
                let (max_x, per_family) = (3, 1);
                let estimator = Estimator::Stratified { max_x, per_family };
                (estimator, u64::from((max_x + 1) * per_family))
            };
            WireOp {
                request: Request::Efficiency {
                    spec,
                    strategy: Strategy::Auto,
                    len,
                    estimator,
                    seed: rng.gen_range(0..u64::MAX),
                },
                elems: len * draws,
            }
        }
        Kind::MultiStream => {
            let streams: Vec<_> = (0..3).map(|k| vector(rng, family(k), len)).collect();
            let policy = [
                IssuePolicy::RoundRobin,
                IssuePolicy::Priority,
                IssuePolicy::WorkConserving,
            ][slot % 3];
            let schedule = [
                SchedulePlan::Together,
                SchedulePlan::FifoWaves { width: 2 },
                SchedulePlan::ConflictAware {
                    width: 2,
                    max_score_milli: 1500,
                },
            ][slot / 3 % 3];
            WireOp {
                elems: len * streams.len() as u64,
                request: Request::MultiStream {
                    spec,
                    streams,
                    strategy: Strategy::Auto,
                    policy,
                    schedule,
                },
            }
        }
    }
}

/// Builds `count` requests of each listed kind, the specs taken in
/// turn. The requests of one kind split `lens` into `count` equal
/// strata and take one seeded length from each, so their lengths are
/// spread evenly; requests of one spec and kind lie at least as many
/// strata apart as there are specs, so their lengths all differ. Every
/// result-cache key holds the spec, the kind and the length, so the
/// requests are distinct to the cache as well. Returned in seeded
/// order.
fn distinct_requests(
    rng: &mut StdRng,
    kinds: &[(Kind, usize)],
    lens: std::ops::RangeInclusive<u64>,
) -> Vec<WireOp> {
    let specs = specs();
    let span = (lens.end() - lens.start() + 1) as f64;
    let mut ops = Vec::new();
    for &(kind, count) in kinds {
        assert!(
            (count as f64) < span * specs.len() as f64,
            "more requests than lengths"
        );
        for i in 0..count {
            let offset = (i as f64 + rng.gen_range(0.0..1.0)) * span / count as f64;
            let len = lens.start() + offset as u64;
            let (spec, slot) = (i % specs.len(), i / specs.len());
            ops.push(request(rng, kind, &specs[spec], len, slot));
        }
    }
    shuffle(rng, &mut ops);
    ops
}

/// Distinct requests of the `wire_miss` stream.
pub fn miss_count(scale: Scale) -> usize {
    match scale {
        // More than the service's default cache bound of 4096 entries.
        Scale::Full => 6144,
        Scale::Short => 96,
    }
}

/// `wire_hit`: a hot set of Measure, MeasureBatch and FamilySweep
/// requests (lengths 64..=256), and a round that sends each of them
/// the same number of times in seeded order.
pub fn hit_stream(seed: u64, scale: Scale) -> Stream<WireOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4817_0001);
    let (hot, repeats) = match scale {
        Scale::Full => (64, 16),
        Scale::Short => (16, 4),
    };
    let kinds = [
        (Kind::Measure, hot * 5 / 8),
        (Kind::MeasureBatch, hot * 3 / 16),
        (Kind::FamilySweep, hot * 3 / 16),
    ];
    let ops = distinct_requests(&mut rng, &kinds, 64..=256);
    let mut order: Vec<usize> = (0..ops.len())
        .flat_map(|i| std::iter::repeat_n(i, repeats))
        .collect();
    shuffle(&mut rng, &mut order);
    Stream { ops, order }
}

/// `wire_miss`: distinct requests of every kind over every registered
/// map, lengths 256..=2048 (40% Measure, 15% MeasureBatch, 15%
/// FamilySweep, 10% Efficiency, 20% MultiStream), each sent once per
/// round.
pub fn miss_stream(seed: u64, scale: Scale) -> Stream<WireOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3155_0002);
    let n = miss_count(scale);
    let (measure, batch, sweep, efficiency) = (n * 40 / 100, n * 15 / 100, n * 15 / 100, n / 10);
    let kinds = [
        (Kind::Measure, measure),
        (Kind::MeasureBatch, batch),
        (Kind::FamilySweep, sweep),
        (Kind::Efficiency, efficiency),
        (Kind::MultiStream, n - measure - batch - sweep - efficiency),
    ];
    let ops = distinct_requests(&mut rng, &kinds, 256..=2048);
    let order = (0..ops.len()).collect();
    Stream { ops, order }
}
