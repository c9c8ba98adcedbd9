//! Host-side measurement: latency percentiles, rates, process memory
//! and CPU time.

use std::time::{Duration, Instant};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by nearest rank; 0 for no
/// values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values`; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of the middle half of `values` (all of them when there
/// are fewer than four).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Seconds since `start`, as `f64`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Blocks whose host lost at most this share of CPU time to the
/// hypervisor (steal) count as quiet.
pub const QUIET_STEAL: f64 = 0.03;

/// How far past its `seconds` a run may go collecting quiet blocks.
pub const MAX_STRETCH: f64 = 1.75;

/// Operations per block, at least.
pub const BLOCK_OPS: usize = 1000;

/// Seconds per block, at least, so steal is measured over at least
/// 50 clock ticks per CPU.
pub const BLOCK_SECONDS: f64 = 0.5;

/// The fewest whole rounds holding [`BLOCK_OPS`] operations and
/// lasting [`BLOCK_SECONDS`]: every block has the same mix of
/// operations, and its 99th percentile has at least ten samples beyond
/// it.
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    ops: u64,
    elems: u64,
    seconds: f64,
    /// Share of the host's CPU time stolen while the block ran.
    steal: f64,
    /// Median and 99th-percentile latency, in microseconds.
    percentiles: [f64; 2],
}

/// What a timed loop records, block by block.
///
/// On a shared host the hypervisor steals CPU time from this machine's
/// virtual CPUs now and then, for seconds to minutes, and a loop whose
/// threads need both CPUs then slows by up to half. So the recorder
/// measures the host's steal over each block, the loop runs until it
/// holds `seconds` of quiet blocks (at most [`MAX_STRETCH`] times
/// `seconds`), and the metrics come from the quietest blocks that
/// together last `seconds`. Only the open block's latencies are kept,
/// so memory does not grow with run length.
#[derive(Debug)]
pub struct Recorder {
    target: f64,
    samples: Vec<u64>,
    open: Block,
    steal_at_open: u64,
    cpus: f64,
    blocks: Vec<Block>,
    rounds: usize,
    ops: u64,
}

impl Recorder {
    /// A recorder aiming at `seconds` of quiet blocks.
    pub fn new(seconds: f64) -> Recorder {
        let (steal, cpus) = host_steal();
        Recorder {
            target: seconds,
            samples: Vec::new(),
            open: Block::default(),
            steal_at_open: steal,
            cpus: cpus as f64,
            blocks: Vec::new(),
            rounds: 0,
            ops: 0,
        }
    }

    /// Records one operation's latency.
    pub fn op(&mut self, latency: Duration) {
        self.samples.push(latency.as_nanos() as u64);
    }

    /// Records one finished round, closing the open block once it is
    /// full.
    pub fn round(&mut self, ops: u64, elems: u64, seconds: f64) {
        self.open.ops += ops;
        self.open.elems += elems;
        self.open.seconds += seconds;
        self.rounds += 1;
        self.ops += ops;
        if self.samples.len() >= BLOCK_OPS && self.open.seconds >= BLOCK_SECONDS {
            let (steal, _) = host_steal();
            let ticks = steal.saturating_sub(self.steal_at_open) as f64;
            self.open.steal = ticks / (self.open.seconds * CLOCK_TICKS_PER_S * self.cpus);
            self.open.percentiles = percentiles(&self.samples);
            self.blocks.push(self.open);
            self.open = Block::default();
            self.samples.clear();
            self.steal_at_open = steal;
        }
    }

    /// Whether the loop may stop after `elapsed` seconds: it holds its
    /// target of quiet blocks, or has stretched as far as it may.
    pub fn done(&self, elapsed: f64) -> bool {
        let quiet: f64 = self
            .blocks
            .iter()
            .filter(|b| b.steal <= QUIET_STEAL)
            .map(|b| b.seconds)
            .sum();
        quiet >= self.target || elapsed >= MAX_STRETCH * self.target
    }

    /// The blocks the metrics come from: the quietest ones until they
    /// last the target, or all samples as one block when none closed.
    fn selected(&self) -> Vec<Block> {
        if self.blocks.is_empty() {
            let mut all = self.open;
            all.percentiles = percentiles(&self.samples);
            return vec![all];
        }
        let mut blocks = self.blocks.clone();
        blocks.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        let mut seconds = 0.0;
        blocks
            .into_iter()
            .take_while(|b| {
                let take = seconds < self.target;
                seconds += b.seconds;
                take
            })
            .collect()
    }

    /// Operations in all rounds, selected or not.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Rounds finished.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Blocks closed, and how many of them were quiet.
    pub fn quiet_blocks(&self) -> (usize, usize) {
        let quiet = self.blocks.iter().filter(|b| b.steal <= QUIET_STEAL);
        (quiet.count(), self.blocks.len())
    }

    /// Seconds of the selected blocks.
    pub fn seconds(&self) -> f64 {
        self.selected().iter().map(|b| b.seconds).sum()
    }

    /// Operations per second over the selected blocks.
    pub fn ops_per_s(&self) -> f64 {
        let blocks = self.selected();
        blocks.iter().map(|b| b.ops).sum::<u64>() as f64
            / blocks.iter().map(|b| b.seconds).sum::<f64>()
    }

    /// Vector elements per second over the selected blocks.
    pub fn elems_per_s(&self) -> f64 {
        let blocks = self.selected();
        blocks.iter().map(|b| b.elems).sum::<u64>() as f64
            / blocks.iter().map(|b| b.seconds).sum::<f64>()
    }

    /// Median latency in microseconds; see [`latency`](Self::latency).
    pub fn p50_us(&self) -> f64 {
        self.latency(0)
    }

    /// 99th-percentile latency in microseconds; see
    /// [`latency`](Self::latency).
    pub fn p99_us(&self) -> f64 {
        self.latency(1)
    }

    /// Percentile `i` (0: median, 1: 99th) in microseconds: the
    /// interquartile mean over the selected blocks' percentiles. A
    /// stall moves one block's figure, which the trim drops.
    fn latency(&self, i: usize) -> f64 {
        let values: Vec<f64> = self.selected().iter().map(|b| b.percentiles[i]).collect();
        interquartile_mean(&values)
    }
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU time the hypervisor stole from this machine, summed over its
/// CPUs, in clock ticks, and the number of CPUs, from `/proc/stat`
/// (0 and 1 where it cannot be read).
fn host_steal() -> (u64, usize) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = stat
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0);
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    (steal, cpus.max(1))
}

/// Median and 99th percentile of nanosecond samples, in microseconds.
fn percentiles(ns: &[u64]) -> [f64; 2] {
    let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    [quantile(&us, 0.50), quantile(&us, 0.99)]
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time of every thread of this process, in nanoseconds, from
/// `/proc/self/task/*/schedstat` (threads that already exited are not
/// counted).
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}
