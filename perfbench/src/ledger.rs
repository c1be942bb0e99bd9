//! `ledger`: `rtc-txn` epochs through `EpochRunner::run_epoch`, n = 4
//! replicas (t = 1), one commit instance per transaction multiplexed
//! inside each `Replica`, the store carried from epoch to epoch.
//!
//! Operation: one epoch, a batch of [`TXS_PER_EPOCH`] transfers over a
//! table of [`ACCOUNTS`] accounts, [`HOT`] of them hot source accounts.
//! Epochs alternate between a random delay-and-crash adversary (even
//! epochs) and the synchronous adversary (odd epochs). Round:
//! [`EPOCHS_PER_ROUND`] epochs from the initial table.
//!
//! Known fault, kept and counted: `Store::validates` checks each
//! transfer against the epoch's starting balances only, so two
//! transfers committed in one epoch can together overdraw an account.
//! The last epoch of every round carries the seed-independent witness:
//! two 60-transfers out of an account holding 100. Both commit and the
//! account ends at −20, so that epoch breaches its floor and counts as
//! failed. The seeded transfers cannot breach a floor: a cold account is
//! the source of at most one transfer per epoch, and a hot account holds
//! far more than a round can debit.

use std::collections::BTreeMap;
use std::hint::black_box;

use rtc_core::CommitConfig;
use rtc_model::{Decision, ProcessorId, SeedCollection, TimingParams};
use rtc_sim::adversaries::{RandomAdversary, SynchronousAdversary};
use rtc_sim::{Adversary, RunLimits, SimBuilder};
use rtc_txn::{replica_population, EpochOutcome, EpochRunner, Op, Store, Transaction, TxId};

use crate::harness::{self, mix, time_op, Args, Checks, EndToEnd, Outcome, Rng, Traced};
use crate::layers::{self, Timed};

/// Replicas.
pub const REPLICAS: usize = 4;
/// Seeded accounts in the table (the witness pair comes on top).
pub const ACCOUNTS: usize = 2048;
/// Hot source accounts, the first of the table.
pub const HOT: usize = 16;
/// Share of transfers, in percent, drawn from a hot account.
pub const HOT_PERCENT: u64 = 40;
/// Transfers per epoch (the witness pair comes on top in the last).
pub const TXS_PER_EPOCH: usize = 24;
/// Epochs per round.
pub const EPOCHS_PER_ROUND: usize = 100;
/// Opening balance of a hot account: more than any run can debit.
const HOT_BALANCE: i64 = 1_000_000_000;
/// Opening balance of the witness account.
const WITNESS_BALANCE: i64 = 100;
/// Each witness transfer: fits alone, overdraws together.
const WITNESS_AMOUNT: i64 = 60;

/// One transfer: `amount` from account `from` to account `to`.
#[derive(Clone, Copy, Debug)]
pub struct Transfer {
    /// Transaction id.
    pub id: TxId,
    /// Source account index.
    pub from: usize,
    /// Destination account index.
    pub to: usize,
    /// Amount moved.
    pub amount: i64,
}

/// One epoch's inputs.
#[derive(Clone, Debug)]
pub struct Epoch {
    /// The transfers, in id order.
    pub transfers: Vec<Transfer>,
    /// The same transfers as transactions.
    pub txs: Vec<Transaction>,
    /// Whether the synchronous adversary drives the epoch.
    pub sync: bool,
    /// Simulator seed (and random adversary seed).
    pub seed: u64,
}

/// A round's inputs: the account table and its epochs.
#[derive(Clone, Debug)]
pub struct Round {
    /// Account names, by index.
    pub names: Vec<String>,
    /// Opening balances, by index.
    pub balances: Vec<i64>,
    /// The epochs.
    pub epochs: Vec<Epoch>,
}

fn transaction(names: &[String], t: &Transfer) -> Transaction {
    Transaction::new(
        t.id.0,
        vec![
            Op::Add {
                key: names[t.from].clone(),
                delta: -t.amount,
                floor: 0,
            },
            Op::add(names[t.to].clone(), t.amount),
        ],
    )
}

fn epoch(names: &[String], transfers: Vec<Transfer>, sync: bool, seed: u64) -> Epoch {
    Epoch {
        txs: transfers.iter().map(|t| transaction(names, t)).collect(),
        transfers,
        sync,
        seed,
    }
}

/// Generates a round from `seed`.
pub fn round(seed: u64) -> Round {
    let mut rng = Rng::new(seed);
    let mut names: Vec<String> = (0..ACCOUNTS).map(|i| format!("acct-{i:05}")).collect();
    let mut balances: Vec<i64> = (0..ACCOUNTS)
        .map(|i| {
            if i < HOT {
                HOT_BALANCE
            } else {
                rng.range(0, 1000) as i64
            }
        })
        .collect();
    let witness = names.len();
    names.extend(["witness".to_string(), "witness-sink".to_string()]);
    balances.extend([WITNESS_BALANCE, 0]);

    let mut epochs = Vec::with_capacity(EPOCHS_PER_ROUND);
    for e in 0..EPOCHS_PER_ROUND {
        let base = (e * (TXS_PER_EPOCH + 2)) as u64;
        let mut debited = vec![false; ACCOUNTS];
        let mut transfers = Vec::with_capacity(TXS_PER_EPOCH + 2);
        for j in 0..TXS_PER_EPOCH {
            let hot = rng.range(1, 100) <= HOT_PERCENT;
            let from = if hot {
                rng.range(0, HOT as u64 - 1) as usize
            } else {
                loop {
                    let a = rng.range(HOT as u64, ACCOUNTS as u64 - 1) as usize;
                    if !debited[a] {
                        debited[a] = true;
                        break a;
                    }
                }
            };
            let to = loop {
                let b = rng.range(0, ACCOUNTS as u64 - 1) as usize;
                if b != from {
                    break b;
                }
            };
            let amount = if hot {
                rng.range(1, 400)
            } else {
                rng.range(1, 1500)
            } as i64;
            transfers.push(Transfer {
                id: TxId(base + j as u64 + 1),
                from,
                to,
                amount,
            });
        }
        if e + 1 == EPOCHS_PER_ROUND {
            for k in 0..2 {
                transfers.push(Transfer {
                    id: TxId(base + (TXS_PER_EPOCH + k) as u64 + 1),
                    from: witness,
                    to: witness + 1,
                    amount: WITNESS_AMOUNT,
                });
            }
        }
        epochs.push(epoch(
            &names,
            transfers,
            e % 2 == 1,
            mix(seed ^ mix(e as u64)),
        ));
    }
    assert!(
        epochs.last().is_some_and(|e| e.sync),
        "the witness rides in a synchronous epoch"
    );
    Round {
        names,
        balances,
        epochs,
    }
}

/// The store the table's balances describe.
pub fn store_of(names: &[String], balances: &[i64]) -> Store {
    Store::with_entries(names.iter().cloned().zip(balances.iter().copied()))
}

fn config() -> CommitConfig {
    CommitConfig::new(REPLICAS, 1, TimingParams::default()).expect("n = 4 tolerates t = 1")
}

fn adversary(epoch: &Epoch) -> Box<dyn Adversary + Send> {
    if epoch.sync {
        Box::new(SynchronousAdversary::new(REPLICAS))
    } else {
        Box::new(
            RandomAdversary::new(epoch.seed)
                .deliver_prob(0.6)
                .crash_prob(0.004),
        )
    }
}

/// Checks one epoch's outcome against the benchmark's own floor check
/// and replay, and returns the replayed balances.
///
/// - Every transfer whose source cannot cover it at the epoch's opening
///   balance aborts.
/// - In a synchronous epoch, every transfer that can be covered, and
///   whose source can cover all of its transfers of the epoch together,
///   commits. (The witness pair is exempt: a validation that counted
///   both debits would rightly abort one of them.)
/// - The store equals the opening balances with the committed set
///   applied in `TxId` order, and the total balance is conserved.
pub fn check_epoch(
    names: &[String],
    start: &[i64],
    epoch: &Epoch,
    outcome: &EpochOutcome,
) -> Result<Vec<i64>, String> {
    let mut debits: BTreeMap<usize, i64> = BTreeMap::new();
    for t in &epoch.transfers {
        *debits.entry(t.from).or_default() += t.amount;
    }
    let mut after = start.to_vec();
    for t in &epoch.transfers {
        let Some(&decision) = outcome.outcomes.get(&t.id) else {
            return Err(format!("{} has no outcome", t.id));
        };
        let covered = start[t.from] >= t.amount;
        if !covered && decision != Decision::Abort {
            return Err(format!(
                "{} overdraws {} ({} < {}) but was {decision:?}",
                t.id, names[t.from], start[t.from], t.amount
            ));
        }
        if epoch.sync && covered && debits[&t.from] <= start[t.from] && decision != Decision::Commit
        {
            return Err(format!(
                "{} passes validation but aborted in a synchronous epoch",
                t.id
            ));
        }
        if decision == Decision::Commit {
            after[t.from] -= t.amount;
            after[t.to] += t.amount;
        }
    }
    if outcome.outcomes.len() != epoch.transfers.len() {
        return Err("outcomes name transactions outside the batch".into());
    }
    if outcome.store_after != store_of(names, &after) {
        return Err("store differs from the replay of the committed set".into());
    }
    let total: i64 = names.iter().map(|k| outcome.store_after.get(k)).sum();
    if total != start.iter().sum::<i64>() {
        return Err(format!("total balance moved to {total}"));
    }
    Ok(after)
}

/// Accounts below their floor (0 for every account of the table).
pub fn floor_breaches(names: &[String], balances: &[i64]) -> Vec<String> {
    names
        .iter()
        .zip(balances)
        .filter(|(_, b)| **b < 0)
        .map(|(k, b)| format!("{k} = {b}"))
        .collect()
}

/// One epoch rebuilt from the public parts `run_epoch` uses, with every
/// replica and the adversary wrapped: outcomes and store as the
/// reference survivor has them, after the same convergence checks.
fn traced_epoch(
    cfg: CommitConfig,
    store: &Store,
    epoch: &Epoch,
    t: &mut Traced,
) -> Result<(BTreeMap<TxId, Decision>, Store), String> {
    let procs = t
        .population
        .time(|| replica_population(cfg, store, &epoch.txs));
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(epoch.seed))
        .fault_budget(cfg.fault_bound())
        .build(procs.into_iter().map(Timed).collect())
        .expect("valid population");
    let mut adv = Timed(adversary(epoch));
    let report = t
        .engine
        .time(|| sim.run(&mut adv, RunLimits::default()))
        .expect("adversary respects the model");
    if !report.all_nonfaulty_decided() {
        return Err("epoch stalled".into());
    }
    let survivors: Vec<ProcessorId> = ProcessorId::all(REPLICAS)
        .filter(|p| !report.is_faulty(*p))
        .collect();
    let reference = &sim.automaton(survivors[0]).0;
    let outcomes = reference.outcomes().clone();
    let store_after = t.store_rebuild.time(|| reference.store());
    for p in &survivors {
        let r = &sim.automaton(*p).0;
        if *p != survivors[0]
            && (r.outcomes() != &outcomes || t.store_rebuild.time(|| r.store()) != store_after)
        {
            return Err(format!("{p} diverged from {}", survivors[0]));
        }
        r.wal().check_invariants()?;
        t.wal_records += r.wal().len() as u64;
        t.replica_txs += epoch.txs.len() as u64;
    }
    t.events += report.events();
    t.ticks
        .extend(sim.trace().decisions().iter().map(|d| d.clock.ticks()));
    Ok((outcomes, store_after))
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let cfg = config();
    let mut checks = Checks::default();
    let mut e2e = EndToEnd::default();
    let mut traced = Traced::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up: generate the table and the round's epochs, and warm up on
    // the first epoch.
    let (inputs, initial) = harness::setup(&mut e2e.setup_s, || {
        let inputs = round(args.seed);
        let initial = store_of(&inputs.names, &inputs.balances);
        let first = &inputs.epochs[0];
        EpochRunner::new(cfg, initial.clone())
            .run_epoch(
                &first.txs,
                first.seed,
                &mut *adversary(first),
                RunLimits::default(),
            )
            .expect("the warm-up epoch decides");
        (inputs, initial)
    });

    let rounds = harness::rounds(args.seconds, || {
        let mut runner = EpochRunner::new(cfg, initial.clone());
        let mut balances = inputs.balances.clone();
        for (e, epoch) in inputs.epochs.iter().enumerate() {
            attempted += 1;
            let opening = runner.store().clone();
            let (result, op_s) = time_op(|| {
                runner.run_epoch(
                    &epoch.txs,
                    epoch.seed,
                    &mut *adversary(epoch),
                    RunLimits::default(),
                )
            });
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(err) => {
                    checks.fail(format!("epoch {e}: {err}"));
                    failed += 1;
                    break;
                }
            };
            match check_epoch(&inputs.names, &balances, epoch, &outcome) {
                Ok(after) => balances = after,
                Err(err) => {
                    checks.fail(format!("epoch {e}: {err}"));
                    failed += 1;
                    break;
                }
            }
            if !floor_breaches(&inputs.names, &balances).is_empty() {
                failed += 1;
            }
            if !args.trace {
                e2e.record(e, op_s, outcome.outcomes.len() as u64);
                continue;
            }
            traced.untraced_ns += (op_s * 1e9) as u64;
            let (rebuilt, t_s) = time_op(|| traced_epoch(cfg, &opening, epoch, &mut traced));
            traced.traced_ns += (t_s * 1e9) as u64;
            traced.decisions += outcome.outcomes.len() as u64;
            match rebuilt {
                Ok((outcomes, store)) => checks.require(
                    outcomes == outcome.outcomes && store == outcome.store_after,
                    || format!("epoch {e}: traced run differs from untraced"),
                ),
                Err(err) => checks.fail(format!("epoch {e}: traced run: {err}")),
            }
            for tx in &epoch.txs {
                black_box(traced.validate.time(|| opening.validates(tx)));
            }
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
    use super::*;

    fn run_sync(
        names: &[String],
        balances: &[i64],
        transfers: Vec<Transfer>,
    ) -> (Epoch, EpochOutcome) {
        let e = epoch(names, transfers, true, 7);
        let out = EpochRunner::new(config(), store_of(names, balances))
            .run_epoch(&e.txs, e.seed, &mut *adversary(&e), RunLimits::default())
            .unwrap();
        (e, out)
    }

    fn pair() -> (Vec<String>, Vec<i64>) {
        (vec!["a".into(), "b".into()], vec![100, 0])
    }

    #[test]
    fn the_two_transfer_overdraft_fails_the_floor_check() {
        let (names, start) = pair();
        let t = |id| Transfer {
            id: TxId(id),
            from: 0,
            to: 1,
            amount: 60,
        };
        let (e, out) = run_sync(&names, &start, vec![t(1), t(2)]);
        assert_eq!(out.outcomes[&TxId(1)], Decision::Commit);
        assert_eq!(out.outcomes[&TxId(2)], Decision::Commit);
        let after = check_epoch(&names, &start, &e, &out).unwrap();
        assert_eq!(after, vec![-20, 120]);
        assert_eq!(floor_breaches(&names, &after), vec!["a = -20".to_string()]);
    }

    #[test]
    fn a_tampered_balance_fails_the_replay_check() {
        let (names, start) = pair();
        let t = Transfer {
            id: TxId(1),
            from: 0,
            to: 1,
            amount: 30,
        };
        let (e, mut out) = run_sync(&names, &start, vec![t]);
        let after = check_epoch(&names, &start, &e, &out).unwrap();
        assert_eq!(after, vec![70, 30]);
        assert!(floor_breaches(&names, &after).is_empty());
        out.store_after = store_of(&names, &[70, 31]);
        assert!(check_epoch(&names, &start, &e, &out).is_err());
    }

    #[test]
    fn an_uncovered_transfer_that_commits_fails_the_floor_check() {
        let (names, start) = pair();
        let t = Transfer {
            id: TxId(1),
            from: 0,
            to: 1,
            amount: 101,
        };
        let (e, mut out) = run_sync(&names, &start, vec![t]);
        assert_eq!(out.outcomes[&TxId(1)], Decision::Abort);
        check_epoch(&names, &start, &e, &out).unwrap();
        out.outcomes.insert(TxId(1), Decision::Commit);
        assert!(check_epoch(&names, &start, &e, &out).is_err());
    }

    #[test]
    fn rounds_repeat_and_only_the_witness_can_overdraw() {
        let r = round(3);
        assert_eq!(format!("{:?}", r.epochs), format!("{:?}", round(3).epochs));
        for e in &r.epochs {
            let mut debits: BTreeMap<usize, i64> = BTreeMap::new();
            for t in &e.transfers {
                *debits.entry(t.from).or_default() += t.amount;
            }
            for (from, total) in debits {
                let cold = (HOT..ACCOUNTS).contains(&from);
                let count = e.transfers.iter().filter(|t| t.from == from).count();
                assert!(!cold || count == 1, "a cold account is debited once");
                assert!(from >= HOT || total * EPOCHS_PER_ROUND as i64 <= HOT_BALANCE);
            }
        }
    }
}
