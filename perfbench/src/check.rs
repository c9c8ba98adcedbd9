//! Correctness checks, run after the timed sections.
//!
//! While timing, the loops only fingerprint each answer
//! ([`Tracker::answer`]) or note an error ([`Tracker::error`]). After
//! timing, every distinct operation is checked once against the
//! benchmark's own reference, and every repeat is held to the first
//! answer. A failed check, an error response or a transport error
//! counts as one failed operation each; nothing panics.

use cfva_core::plan::Strategy;
use cfva_memsim::{AccessStats, Engine};
use cfva_serve::api::{Request, Response};
use cfva_serve::runner::BatchRunner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::reference::{self, response_digest, stats_summary_digest};
use crate::stream::{specs, Stream, SweepOp, WireOp, THEOREM1_S, THEOREM1_SPEC, THEOREM1_T};

/// Per distinct operation: how often it was answered, the first
/// answer's digest, and how many answers equalled the first.
#[derive(Debug, Clone, Default)]
pub struct Tracker {
    first: Vec<Option<u64>>,
    same: Vec<u64>,
    total: Vec<u64>,
    errors: u64,
    /// The first served response of each distinct multi-stream
    /// request, kept for the multi-stream accounting checks.
    kept: Vec<Option<Response>>,
}

impl Tracker {
    /// A tracker for `distinct` operations.
    pub fn new(distinct: usize) -> Tracker {
        Tracker {
            first: vec![None; distinct],
            same: vec![0; distinct],
            total: vec![0; distinct],
            errors: 0,
            kept: vec![None; distinct],
        }
    }

    /// Records an answer's digest for operation `ix`.
    pub fn answer(&mut self, ix: usize, digest: u64) {
        self.total[ix] += 1;
        match self.first[ix] {
            None => {
                self.first[ix] = Some(digest);
                self.same[ix] += 1;
            }
            Some(first) if first == digest => self.same[ix] += 1,
            Some(_) => {}
        }
    }

    /// Records a served response for operation `ix`.
    pub fn response(&mut self, ix: usize, response: Response) {
        self.answer(ix, response_digest(&response));
        if matches!(response, Response::MultiStream(_)) && self.kept[ix].is_none() {
            self.kept[ix] = Some(response);
        }
    }

    /// Records an operation that failed without an answer (an error
    /// response or a transport error).
    pub fn error(&mut self) {
        self.errors += 1;
    }

    /// Operations that failed without an answer.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Operations recorded so far, answered or not.
    pub fn attempted(&self) -> u64 {
        self.total.iter().sum::<u64>() + self.errors
    }

    /// Failed operations, given which distinct operations are correct
    /// (`expected[ix]` is the digest of the right answer, `None` when
    /// operation `ix` failed a check of its own).
    fn failed(&self, expected: &[Option<u64>]) -> u64 {
        let wrong: u64 = (0..self.first.len())
            .map(|ix| match (self.first[ix], expected[ix]) {
                (None, _) => 0,
                (Some(first), Some(want)) if first == want => self.total[ix] - self.same[ix],
                _ => self.total[ix],
            })
            .sum();
        wrong + self.errors
    }
}

/// The outcome of checking one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: wrong answers, error responses and
    /// transport errors.
    pub failed: u64,
    /// Whether every check could run: every operation that did not
    /// fail was verified.
    pub complete: bool,
}

/// The sweep checks on one access, from its statistics:
///
/// * Σ `module_busy` = L·T and latency ≥ T + L + 1 on every access;
/// * Theorem 1 for [`THEOREM1_SPEC`]: at `L = 2^λ`, every family
///   `s − min(λ − t, s) ≤ x ≤ s` is served in exactly `T + L + 1`
///   cycles with no conflicts and no stalls.
///
/// Returns whether the Theorem 1 window covered the access.
pub fn check_sweep_access(
    spec: &str,
    t_cycles: u64,
    op: &SweepOp,
    stats: &AccessStats,
) -> Result<bool, String> {
    let len = op.vec.len();
    let busy: u64 = stats.module_busy.iter().sum();
    if stats.elements != len || busy != len * t_cycles {
        return Err(format!(
            "{spec} {:?}: {} elements and {busy} busy cycles, expected {len} and {}",
            op.vec,
            stats.elements,
            len * t_cycles
        ));
    }
    let floor = t_cycles + len + 1;
    if stats.latency < floor {
        return Err(format!(
            "{spec} {:?}: latency {} below T + L + 1 = {floor}",
            op.vec, stats.latency
        ));
    }
    // The window of Theorem 1: s − min(λ − t, s) ≤ x ≤ s at L = 2^λ ≥ T.
    let lambda = len.trailing_zeros();
    let window_lo = THEOREM1_S - lambda.saturating_sub(THEOREM1_T).min(THEOREM1_S);
    let in_window = spec == THEOREM1_SPEC
        && len.is_power_of_two()
        && lambda >= THEOREM1_T
        && (window_lo..=THEOREM1_S).contains(&op.vec.family().exponent());
    if in_window && (stats.latency != floor || stats.conflicts != 0 || stats.stall_cycles != 0) {
        return Err(format!(
            "{spec} {:?}: inside the Theorem 1 window but latency {} (want {floor}), {} conflicts, {} stalls",
            op.vec, stats.latency, stats.conflicts, stats.stall_cycles
        ));
    }
    Ok(in_window)
}

/// Accesses of a sweep held to the cycle oracle bit for bit.
pub const ORACLE_SAMPLE: usize = 12;

/// Checks the sweep: recomputes every distinct access on fresh
/// sessions, applies [`check_sweep_access`], holds a seeded sample to
/// the `Engine::Cycle` oracle, and compares with the answers the timed
/// loop fingerprinted.
pub fn check_sweep(stream: &Stream<SweepOp>, tracker: &Tracker, seed: u64) -> Verdict {
    let specs = specs();
    let mut fresh: Vec<BatchRunner> = specs.iter().map(|s| session(s)).collect();
    let mut oracle: Vec<BatchRunner> = specs
        .iter()
        .map(|s| {
            let mut r = session(s);
            r.set_engine(Engine::Cycle);
            r
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x04AC_1E00);
    let sample: Vec<usize> = (0..ORACLE_SAMPLE)
        .map(|_| rng.gen_range(0..stream.ops.len() as u64) as usize)
        .collect();
    let mut theorem_hits = 0;
    let expected: Vec<Option<u64>> = stream
        .ops
        .iter()
        .enumerate()
        .map(|(ix, op)| {
            let runner = &mut fresh[op.spec];
            let t_cycles = runner.mem().t_cycles();
            let stats = runner.measure_owned(&op.vec, Strategy::Auto)?;
            match check_sweep_access(&specs[op.spec], t_cycles, op, &stats) {
                Ok(in_window) => theorem_hits += usize::from(in_window),
                Err(why) => {
                    eprintln!("check failed: {why}");
                    return None;
                }
            }
            if sample.contains(&ix) {
                let cycle = oracle[op.spec].measure_owned(&op.vec, Strategy::Auto);
                if cycle.as_ref() != Some(&stats) {
                    eprintln!(
                        "check failed: {} {:?} differs from the cycle oracle",
                        specs[op.spec], op.vec
                    );
                    return None;
                }
            }
            Some(stats_summary_digest(&stats))
        })
        .collect();
    Verdict {
        attempted: tracker.attempted(),
        failed: tracker.failed(&expected),
        complete: theorem_hits > 0,
    }
}

/// A session of `spec` on the default engine chain.
pub fn session(spec: &str) -> BatchRunner {
    BatchRunner::from_spec_str(spec).expect("registered specs build")
}

/// The multi-stream accounting checks on a served outcome: every
/// stream's elements equal its length, the makespan is the sum of the
/// wave makespans, and the sequential baseline is the sum of the
/// streams' solo latencies measured on a session.
pub fn check_multi_stream(
    runner: &mut BatchRunner,
    request: &Request,
    served: &Response,
) -> Result<(), String> {
    let (
        Request::MultiStream {
            streams, strategy, ..
        },
        Response::MultiStream(outcome),
    ) = (request, served)
    else {
        return Err("multi-stream request answered with another kind".into());
    };
    if outcome.per_stream.len() != streams.len()
        || outcome
            .per_stream
            .iter()
            .zip(streams)
            .any(|(s, v)| s.elements != v.len())
    {
        return Err("stream elements differ from the stream lengths".into());
    }
    if outcome.makespan != outcome.wave_makespans.iter().sum::<u64>() {
        return Err("makespan differs from the sum of the wave makespans".into());
    }
    let solo: u64 = reference::plan_streams(runner, streams, *strategy)
        .iter()
        .map(|plan| runner.run_plan(plan).latency)
        .sum();
    if outcome.sequential_baseline != solo {
        return Err(format!(
            "sequential baseline {} differs from the solo latencies' sum {solo}",
            outcome.sequential_baseline
        ));
    }
    Ok(())
}

/// Checks a wire workload: every distinct request answered is
/// recomputed on a fresh serial session and compared with the served
/// answer; multi-stream answers also pass [`check_multi_stream`].
pub fn check_wire(stream: &Stream<WireOp>, tracker: &Tracker) -> Verdict {
    let specs = specs();
    let mut fresh: Vec<BatchRunner> = specs.iter().map(|s| session(s)).collect();
    let expected: Vec<Option<u64>> = stream
        .ops
        .iter()
        .enumerate()
        .map(|(ix, op)| {
            tracker.first[ix]?;
            let spec = specs.iter().position(|s| s == op.request.spec())?;
            let runner = &mut fresh[spec];
            if let Some(served) = &tracker.kept[ix] {
                if let Err(why) = check_multi_stream(runner, &op.request, served) {
                    eprintln!("check failed: {why}");
                    return None;
                }
            }
            Some(response_digest(&reference::execute(runner, &op.request)))
        })
        .collect();
    Verdict {
        attempted: tracker.attempted(),
        failed: tracker.failed(&expected),
        complete: true,
    }
}
