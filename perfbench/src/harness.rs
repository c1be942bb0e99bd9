//! What every workload shares: arguments, the set-up and round loops,
//! the end-to-end and per-layer metric sets, and the result line.

use std::cell::RefCell;
use std::time::Instant;

use crate::layers::{ratio, Ledger, Span, KIND_NAMES};

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured loop runs, in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad.clone())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad.clone())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} is outside (0, 600]"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Records check failures; a run with any is not correct.
#[derive(Debug, Default)]
pub struct Checks {
    failures: u64,
}

impl Checks {
    /// Records one failed check (the first few are printed to stderr).
    pub fn fail(&mut self, what: impl AsRef<str>) {
        if self.failures < 10 {
            eprintln!("check failed: {}", what.as_ref());
        }
        self.failures += 1;
    }

    /// Records a failure unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }
}

/// A workload's result: correctness, operation counts and metrics.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Whole rounds completed.
    pub rounds: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Extra lines for the printout.
    pub notes: Vec<String>,
}

/// Runs `f` [`SETUP_REPEATS`] times, recording each duration in
/// reference seconds (the kernel is timed before and after each), and
/// keeps the last result.
pub fn setup<T>(setup_s: &mut Vec<f64>, mut f: impl FnMut() -> T) -> T {
    // The first call builds the kernel's table.
    std::hint::black_box(kernel());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let before = time_kernel();
        let (out, seconds) = time_op(&mut f);
        let after = time_kernel();
        setup_s.push(seconds * KERNEL_REF_S * 2.0 / (before + after));
        last = Some(out);
    }
    last.expect("at least one set-up")
}

/// The calibration kernel's time in the reference state of the host
/// the reference figures come from. Times are reported in reference
/// seconds: wall seconds scaled by this over the kernel's measured time
/// nearby.
pub const KERNEL_REF_S: f64 = 0.8e-3;

/// Operation time between two kernel runs.
const KERNEL_EVERY_S: f64 = 5e-3;

/// Words in the kernel's table: 4 MiB, more than a core's private
/// caches, as the workloads' working sets are.
const TABLE_WORDS: usize = 1 << 19;

thread_local! {
    static TABLE: RefCell<Vec<u64>> = RefCell::new((0..TABLE_WORDS as u64).map(mix).collect());
}

/// The calibration kernel: a fixed piece of the benchmark's own code,
/// independent of the program under test. Half of it is short-string
/// allocation and ordered-map work (the ledger's kind), half dependent
/// reads and writes across a 4 MiB table (the simulator's kind, whose
/// slabs and traces outgrow the private caches).
pub fn kernel() -> u64 {
    let mut map = std::collections::BTreeMap::new();
    let mut x = 1u64;
    let mut acc = 0u64;
    for i in 0..1000u64 {
        x = mix(x);
        map.insert(format!("k{}", x % 512), vec![i; 4]);
        if let Some(v) = map.get(&format!("k{}", x.rotate_left(7) % 512)) {
            acc = acc.wrapping_add(v[0]);
        }
    }
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        for _ in 0..6000u64 {
            x = mix(x);
            let i = x as usize % TABLE_WORDS;
            t[i] = t[i].wrapping_add(x);
            acc = acc.wrapping_add(t[t[i] as usize % TABLE_WORDS]);
        }
    });
    acc + map.len() as u64
}

/// Times one run of [`kernel`], in seconds.
pub fn time_kernel() -> f64 {
    time_op(|| std::hint::black_box(kernel())).1
}

/// Runs whole rounds until `seconds` have passed (at least one round),
/// so every run attempts the same operations in the same proportions.
/// Returns the number of rounds.
pub fn rounds(seconds: f64, mut round: impl FnMut()) -> u64 {
    let start = Instant::now();
    let mut n = 0;
    loop {
        round();
        n += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            return n;
        }
    }
}

/// Times one operation: its result and its duration in seconds.
pub fn time_op<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The nearest-rank `q`-quantile of integer samples (0 when empty).
pub fn rank_quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The untraced run's measurements.
///
/// Benchmark hosts are often shared: on a shared two-core host,
/// back-to-back runs of one seed differed by a fifth in wall time. So
/// operation times are reported in reference seconds. Between operations (every
/// [`KERNEL_EVERY_S`] of operation time) the run times a fixed kernel of
/// its own; each round's operation times are divided by the round's
/// mean kernel time over [`KERNEL_REF_S`]. A change to the program
/// moves the operations but not the kernel; a change in the machine's
/// speed moves both.
///
/// Every round repeats the same operations, so each operation has one
/// scaled sample per round; its time is the median of them.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Per operation of a round: its scaled samples in reference
    /// seconds, and the commit instances it decides (the same every
    /// round).
    ops: Vec<(Vec<f64>, u64)>,
    /// The current round's raw samples: operation, seconds, decided.
    round: Vec<(usize, f64, u64)>,
    /// The current round's kernel times.
    kernel_s: Vec<f64>,
    /// Operation time since the last kernel run.
    since_kernel_s: f64,
    /// Each finished round's mean kernel time over the reference.
    speeds: Vec<f64>,
    /// Unscaled operation time and decisions, for the printout.
    raw: (f64, u64),
    /// Each set-up repetition, in reference seconds.
    pub setup_s: Vec<f64>,
}

impl EndToEnd {
    /// Records one run of operation `op` (its index within the round).
    pub fn record(&mut self, op: usize, seconds: f64, decided: u64) {
        self.round.push((op, seconds, decided));
        self.since_kernel_s += seconds;
        if self.since_kernel_s >= KERNEL_EVERY_S {
            self.kernel_s.push(time_kernel());
            self.since_kernel_s = 0.0;
        }
    }

    /// Scales the round's samples by the round's kernel time.
    pub fn end_round(&mut self) {
        if self.round.is_empty() {
            return;
        }
        if self.kernel_s.is_empty() {
            self.kernel_s.push(time_kernel());
        }
        let mean = self.kernel_s.iter().sum::<f64>() / self.kernel_s.len() as f64;
        let factor = mean / KERNEL_REF_S;
        for (op, seconds, decided) in self.round.drain(..) {
            if self.ops.len() <= op {
                self.ops.resize_with(op + 1, Default::default);
            }
            self.ops[op].0.push(seconds / factor);
            self.ops[op].1 = decided;
            self.raw.0 += seconds;
            self.raw.1 += decided;
        }
        self.speeds.push(factor);
        self.kernel_s.clear();
    }

    /// The end-to-end metrics this binary measures. `peak_rss_mb` is
    /// added by `run.py`, which reads the process's peak resident size
    /// from the operating system when the process ends.
    pub fn metrics(&self) -> Vec<Metric> {
        let op_s: Vec<f64> = self.ops.iter().map(|(s, _)| quantile(s, 0.5)).collect();
        let decided: u64 = self.ops.iter().map(|(_, d)| d).sum();
        vec![
            metric(
                "decided_per_s",
                decided as f64 / op_s.iter().sum::<f64>(),
                "1/s",
            ),
            metric("op_ms_p50", quantile(&op_s, 0.5) * 1e3, "ms"),
            metric("op_ms_p90", quantile(&op_s, 0.9) * 1e3, "ms"),
            metric("setup_s", quantile(&self.setup_s, 0.5), "s"),
        ]
    }

    /// Lines for the printout: the unscaled throughput and the
    /// machine's speed over the run.
    pub fn notes(&self) -> Vec<String> {
        vec![
            format!(
                "unscaled: decided_per_s={:.1} (wall seconds, mean over rounds)",
                self.raw.1 as f64 / self.raw.0
            ),
            format!(
                "kernel/reference per round: median {:.4} min {:.4} max {:.4} over {} rounds",
                quantile(&self.speeds, 0.5),
                quantile(&self.speeds, 0.0),
                quantile(&self.speeds, 1.0),
                self.speeds.len()
            ),
        ]
    }
}

/// The traced run's measurements: the wrappers' [`Ledger`] plus timed
/// public calls and the counts they are divided by.
#[derive(Debug, Default)]
pub struct Traced {
    /// The wrappers' counters, collected at the end of the run.
    pub ledger: Ledger,
    /// Decided commit instances (the workload's unit of `decided_per_s`).
    pub decisions: u64,
    /// Scheduler events.
    pub events: u64,
    /// Decision clocks (`DecisionRecord::clock`) in ticks.
    pub ticks: Vec<u64>,
    /// Engine calls (`run`, `run_segment`, `run_until`), which contain
    /// every `step` and `next`.
    pub engine: Span,
    /// `rtc_spec::lint_trace` calls the operation itself makes.
    pub lint_in_op: Span,
    /// `rtc_spec::lint_trace` calls the benchmark makes as a check.
    pub lint_check: Span,
    /// Events the linter replayed.
    pub lint_events: u64,
    /// `ChaosSchedule::generate` calls.
    pub generate: Span,
    /// `Store::validates` calls.
    pub validate: Span,
    /// `replica_population` calls.
    pub population: Span,
    /// `Replica::store` calls.
    pub store_rebuild: Span,
    /// WAL records summed over surviving replicas.
    pub wal_records: u64,
    /// Transactions summed over surviving replicas.
    pub replica_txs: u64,
    /// Untraced operation time over the run.
    pub untraced_ns: u64,
    /// Traced (rebuilt, wrapped) operation time over the run.
    pub traced_ns: u64,
}

impl Traced {
    /// Every per-layer metric, in `BENCHMARK.json` order. A layer the
    /// workload never enters reads 0.
    pub fn metrics(&mut self) -> Vec<Metric> {
        let l = &self.ledger;
        let d = self.decisions;
        let engine_ns = self
            .engine
            .ns
            .saturating_sub(l.step_ns + l.next_ns + l.probe_ns);
        // Top-level spans inside the traced operation; the validate
        // probe and check lints run outside it.
        let attributed =
            self.engine.ns + self.lint_in_op.ns + self.population.ns + self.store_rebuild.ns;
        let lint = Span {
            ns: self.lint_in_op.ns + self.lint_check.ns,
            calls: self.lint_in_op.calls + self.lint_check.calls,
        };
        let mut out = vec![
            metric("core.step_ns", ratio(l.step_ns, l.steps), "ns"),
            metric("core.steps_per_decision", ratio(l.steps, d), "count"),
            metric(
                "core.deliveries_per_decision",
                ratio(l.deliveries, d),
                "count",
            ),
            metric("core.sends_per_decision", ratio(l.sends, d), "count"),
        ];
        for (name, count) in KIND_NAMES.iter().zip(l.kinds) {
            out.push(metric(
                format!("core.{name}_per_decision"),
                ratio(count, d),
                "count",
            ));
        }
        out.extend([
            metric(
                "sim.engine_ns_per_event",
                ratio(engine_ns, self.events),
                "ns",
            ),
            metric("sim.events_per_decision", ratio(self.events, d), "count"),
            metric(
                "sim.decision_ticks_p50",
                rank_quantile(&mut self.ticks, 0.5) as f64,
                "ticks",
            ),
            metric(
                "sim.decision_ticks_p99",
                rank_quantile(&mut self.ticks, 0.99) as f64,
                "ticks",
            ),
            metric("adversary.next_ns", ratio(l.next_ns, l.next_calls), "ns"),
            metric(
                "adversary.calls_per_decision",
                ratio(l.next_calls, d),
                "count",
            ),
            metric(
                "spec.lint_ns_per_event",
                ratio(lint.ns, self.lint_events),
                "ns",
            ),
            metric("chaos.generate_us", self.generate.mean_ns() / 1e3, "us"),
            metric("txn.validate_us", self.validate.mean_ns() / 1e3, "us"),
            metric("txn.population_us", self.population.mean_ns() / 1e3, "us"),
            metric(
                "txn.store_rebuild_us",
                self.store_rebuild.mean_ns() / 1e3,
                "us",
            ),
            metric(
                "txn.wal_records_per_tx",
                ratio(self.wal_records, self.replica_txs),
                "count",
            ),
            metric(
                "txn.txmsgs_per_send",
                if self.replica_txs == 0 {
                    0.0
                } else {
                    ratio(l.parts_sent, l.sends)
                },
                "count",
            ),
            metric(
                "trace.overhead_share",
                ratio(self.traced_ns, self.untraced_ns) - 1.0,
                "fraction",
            ),
            metric(
                "trace.unattributed_share",
                1.0 - ratio(attributed, self.traced_ns),
                "fraction",
            ),
        ]);
        out
    }
}

/// Formats the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values cannot be measured and read 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".into()
    }
}

/// A stable 64-bit mix (SplitMix64) for deriving input seeds.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small deterministic generator over [`mix`].
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_rank() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(rank_quantile(&mut [5, 1, 3, 2, 4], 0.5), 3);
        assert_eq!(rank_quantile(&mut [5, 1, 3, 2, 4], 0.99), 5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(&Outcome {
            correct: true,
            attempted: 3,
            failed: 1,
            rounds: 1,
            metrics: vec![metric("x", 2.0, "ms")],
            notes: Vec::new(),
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"x\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = args("--workload ledger --seed 7 --seconds 2 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("ledger", 7, true));
        assert!(args("--workload ledger --trace 2").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --bogus 1").is_err());
    }
}
