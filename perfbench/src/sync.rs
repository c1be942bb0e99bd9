//! `sync-n16`: the paper's fast path. Failure-free, on-time commits at
//! n = 16 (t = 7), every processor voting commit, under the synchronous
//! adversary, 64 instances per `ParBatchSim` batch on one worker.
//!
//! Operation: build and run one batch. Round: [`BATCHES_PER_ROUND`]
//! batches whose lane seeds derive from `--seed`.

use rtc_core::{commit_population, CommitAutomaton, CommitConfig, CommitMsg};
use rtc_model::{Automaton, ProcessorId, SeedCollection, TimingParams, Value};
use rtc_sim::adversaries::SynchronousAdversary;
use rtc_sim::{
    Adversary, DecisionRecord, ParBatchPool, ParBatchSim, ParBatchSimBuilder, RunLimits, SimBuilder,
};
use rtc_spec::RunSpec;

use crate::harness::{self, mix, time_op, Args, Checks, EndToEnd, Outcome, Traced};
use crate::layers::{self, spec_config, Timed};

/// Processors per instance.
pub const N: usize = 16;
/// Instances per batch.
pub const LANES: usize = 64;
/// Batches per round.
pub const BATCHES_PER_ROUND: u64 = 100;

fn config() -> CommitConfig {
    CommitConfig::new(N, CommitConfig::max_tolerated(N), TimingParams::default())
        .expect("n = 16 tolerates t = 7")
}

fn lane_seed(seed: u64, batch: u64, lane: usize) -> u64 {
    mix(seed ^ mix(batch * LANES as u64 + lane as u64))
}

/// Builds one batch of [`LANES`] all-commit instances, each processor
/// wrapped by `wrap`, on a single worker recycling `pool`.
fn build<A: Automaton<Msg = CommitMsg>>(
    cfg: CommitConfig,
    seed: u64,
    batch: u64,
    pool: ParBatchPool<CommitMsg>,
    wrap: impl Fn(CommitAutomaton) -> A,
) -> ParBatchSim<A> {
    let votes = vec![Value::One; N];
    let mut builder = ParBatchSimBuilder::from_pool(pool, 1);
    for lane in 0..LANES {
        builder
            .instance(
                SimBuilder::new(
                    cfg.timing(),
                    SeedCollection::new(lane_seed(seed, batch, lane)),
                )
                .fault_budget(cfg.fault_bound()),
                commit_population(cfg, &votes)
                    .into_iter()
                    .map(&wrap)
                    .collect(),
            )
            .expect("every lane has n = 16");
    }
    builder.build()
}

/// Commit-Validity and Remark 1 for one lane: every processor decided
/// commit, each within `bound` ticks of its own clock.
pub fn check_lane(decisions: &[DecisionRecord], bound: u64) -> Result<(), String> {
    for p in ProcessorId::all(N) {
        let Some(d) = decisions.iter().find(|d| d.p == p) else {
            return Err(format!("{p} did not decide"));
        };
        if d.value != Value::One {
            return Err(format!("{p} decided {:?} though all voted commit", d.value));
        }
        if d.clock.ticks() > bound {
            return Err(format!(
                "{p} decided at tick {} > 8K = {bound}",
                d.clock.ticks()
            ));
        }
    }
    Ok(())
}

/// Runs one batch, each lane under its own `adversary()`, and returns
/// it with the number of decided lanes.
fn run_batch<A, D>(mut batch: ParBatchSim<A>, adversary: impl Fn() -> D) -> (ParBatchSim<A>, u64)
where
    A: Automaton<Msg = CommitMsg> + Send,
    D: Adversary + Send,
{
    let mut advs: Vec<D> = (0..LANES).map(|_| adversary()).collect();
    let reports = batch
        .run(&mut advs, RunLimits::default())
        .expect("the synchronous adversary stays within the model");
    let decided = reports.iter().filter(|r| r.all_nonfaulty_decided()).count() as u64;
    (batch, decided)
}

fn sync() -> SynchronousAdversary {
    SynchronousAdversary::new(N)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let cfg = config();
    let bound = cfg.timing().failure_free_decision_bound();
    let mut checks = Checks::default();
    let mut e2e = EndToEnd::default();
    let mut traced = Traced::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up: warm the pool with one batch (population construction
    // and slab growth included).
    let mut pool = harness::setup(&mut e2e.setup_s, || {
        let batch = build(cfg, args.seed, 0, ParBatchPool::new(), |a| a);
        let (batch, _) = run_batch(batch, sync);
        batch.into_pool()
    });
    let mut traced_pool = ParBatchPool::new();

    let rounds = harness::rounds(args.seconds, || {
        for b in 0..BATCHES_PER_ROUND {
            attempted += 1;
            let ((batch, decided), op_s) = time_op(|| {
                let batch = build(cfg, args.seed, b, std::mem::take(&mut pool), |a| a);
                run_batch(batch, sync)
            });
            let mut ok = true;
            for lane in 0..LANES {
                if let Err(e) = check_lane(batch.decisions(lane), bound) {
                    checks.fail(format!("batch {b} lane {lane}: {e}"));
                    ok = false;
                }
            }
            if !ok {
                failed += 1;
            }
            if args.trace {
                traced.untraced_ns += (op_s * 1e9) as u64;
                let ((mut tb, _), t_s) = time_op(|| {
                    let tb = build(cfg, args.seed, b, std::mem::take(&mut traced_pool), Timed);
                    traced.engine.time(|| run_batch(tb, || Timed(sync())))
                });
                traced.traced_ns += (t_s * 1e9) as u64;
                traced.decisions += decided;
                let votes = vec![Value::One; N];
                for lane in 0..LANES {
                    checks.require(
                        tb.decisions(lane) == batch.decisions(lane)
                            && tb.events_executed(lane) == batch.events_executed(lane),
                        || format!("batch {b} lane {lane}: traced run differs from untraced"),
                    );
                    traced.events += tb.events_executed(lane);
                    traced
                        .ticks
                        .extend(tb.decisions(lane).iter().map(|d| d.clock.ticks()));
                    let spec = RunSpec::new(
                        spec_config(&cfg),
                        SeedCollection::new(lane_seed(args.seed, b, lane)),
                        votes.clone(),
                    );
                    let trace = tb.lane_trace(lane);
                    match traced
                        .lint_check
                        .time(|| rtc_spec::lint_trace(&spec, trace, &[]))
                    {
                        Ok(c) => traced.lint_events += c.events as u64,
                        Err(e) => checks.fail(format!("batch {b} lane {lane}: {e}")),
                    }
                }
                traced_pool = tb.into_pool();
            } else {
                e2e.record(b as usize, op_s, decided);
            }
            pool = batch.into_pool();
        }
        e2e.end_round();
    });

    let (metrics, notes) = if args.trace {
        traced.ledger = layers::take();
        (traced.metrics(), Vec::new())
    } else {
        (e2e.metrics(), e2e.notes())
    };
    Outcome {
        correct: checks.passed(),
        attempted,
        failed,
        rounds,
        metrics,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use rtc_model::LocalClock;

    use super::*;

    fn all_commit(clock: u64) -> Vec<DecisionRecord> {
        ProcessorId::all(N)
            .map(|p| DecisionRecord {
                p,
                value: Value::One,
                clock: LocalClock::new(clock),
                event: 0,
            })
            .collect()
    }

    #[test]
    fn lane_check_accepts_on_time_commits_and_rejects_the_rest() {
        assert!(check_lane(&all_commit(10), 32).is_ok());
        assert!(check_lane(&all_commit(33), 32).is_err());
        let mut flipped = all_commit(10);
        flipped[3].value = Value::Zero;
        assert!(check_lane(&flipped, 32).is_err());
        assert!(check_lane(&all_commit(10)[1..], 32).is_err());
    }

    #[test]
    fn a_real_batch_passes_the_lane_check() {
        let cfg = config();
        let batch = build(cfg, 3, 0, ParBatchPool::new(), |a| a);
        let (batch, decided) = run_batch(batch, sync);
        assert_eq!(decided, LANES as u64);
        for lane in 0..LANES {
            check_lane(
                batch.decisions(lane),
                cfg.timing().failure_free_decision_bound(),
            )
            .unwrap();
        }
    }
}
