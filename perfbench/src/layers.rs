//! The outside-in layer ledger.
//!
//! Nothing inside the program is traced. Layers are timed from here in
//! two ways: [`Timed`] wraps a part the workload supplies (an automaton
//! through `Automaton`/`Recoverable`, a scheduler through `Adversary`),
//! and [`Span::time`] times one call into a public function.
//!
//! The wrappers write into a thread-local [`Ledger`]. Every workload
//! runs on the calling thread (one `ParBatchSim` worker runs inline), so
//! the ledger sees every step and every adversary query.

use std::cell::RefCell;
use std::time::Instant;

use rtc_core::{CommitKind, CommitMsg};
use rtc_model::{Automaton, Delivery, ProcessorId, Recoverable, Send, Status, StepRng};
use rtc_sim::{Action, Adversary, PatternView};
use rtc_txn::TxMsg;

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::default());
}

/// Names of the ingest-by-kind counters, in [`Ledger::kinds`] order.
pub const KIND_NAMES: [&str; 5] = ["go", "vote", "agree", "decided", "ping"];

/// What the wrappers have counted and timed since the last [`take`].
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Time inside `Automaton::step`.
    pub step_ns: u64,
    /// `Automaton::step` calls.
    pub steps: u64,
    /// Messages ingested (one per `Delivery`; a ledger bundle is one).
    pub deliveries: u64,
    /// Messages emitted (one per `Send`).
    pub sends: u64,
    /// Protocol payloads ingested, by `CommitKind`.
    pub kinds: [u64; 5],
    /// Per-transaction messages inside the emitted sends (1 per send
    /// for plain commit messages).
    pub parts_sent: u64,
    /// Time inside `Adversary::next`.
    pub next_ns: u64,
    /// `Adversary::next` calls.
    pub next_calls: u64,
    /// The wrappers' own bookkeeping after each timed call.
    pub probe_ns: u64,
}

/// Returns the ledger accumulated on this thread and resets it.
pub fn take() -> Ledger {
    LEDGER.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// A message type whose protocol payloads the ledger can count.
pub trait Payload {
    /// Adds this message's payloads to the per-kind counters.
    fn tally(&self, kinds: &mut [u64; 5]);
    /// How many per-transaction messages this message carries.
    fn parts(&self) -> u64;
}

impl Payload for CommitMsg {
    fn tally(&self, kinds: &mut [u64; 5]) {
        for kind in self.kinds.iter() {
            let slot = match kind {
                CommitKind::Go => 0,
                CommitKind::Vote(_) => 1,
                CommitKind::Agree(_) => 2,
                CommitKind::Decided(_) => 3,
                CommitKind::Ping => 4,
            };
            kinds[slot] += 1;
        }
    }

    fn parts(&self) -> u64 {
        1
    }
}

impl Payload for Vec<TxMsg> {
    fn tally(&self, kinds: &mut [u64; 5]) {
        for (_, msg) in self {
            msg.tally(kinds);
        }
    }

    fn parts(&self) -> u64 {
        self.len() as u64
    }
}

/// A timing wrapper around a part the workload supplies.
#[derive(Clone, Debug)]
pub struct Timed<T>(pub T);

impl<A> Automaton for Timed<A>
where
    A: Automaton,
    A::Msg: Payload,
{
    type Msg = A::Msg;

    fn id(&self) -> ProcessorId {
        self.0.id()
    }

    fn step(&mut self, delivered: &[Delivery<A::Msg>], rng: &mut StepRng) -> Vec<Send<A::Msg>> {
        let start = Instant::now();
        let out = self.0.step(delivered, rng);
        let stepped = Instant::now();
        LEDGER.with(|l| {
            let mut l = l.borrow_mut();
            l.step_ns += nanos(start, stepped);
            l.steps += 1;
            l.deliveries += delivered.len() as u64;
            l.sends += out.len() as u64;
            for d in delivered {
                d.msg.tally(&mut l.kinds);
            }
            for s in &out {
                l.parts_sent += s.msg.parts();
            }
            l.probe_ns += nanos(stepped, Instant::now());
        });
        out
    }

    fn status(&self) -> Status {
        self.0.status()
    }
}

impl<A> Recoverable for Timed<A>
where
    A: Recoverable,
    A::Msg: Payload,
{
    type Snapshot = A::Snapshot;

    fn snapshot(&self) -> A::Snapshot {
        self.0.snapshot()
    }

    fn restore(snapshot: &A::Snapshot) -> Timed<A> {
        Timed(A::restore(snapshot))
    }

    fn restore_amnesiac(snapshot: &A::Snapshot) -> Timed<A> {
        Timed(A::restore_amnesiac(snapshot))
    }
}

impl<D: Adversary> Adversary for Timed<D> {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        let start = Instant::now();
        let action = self.0.next(view);
        let chosen = Instant::now();
        LEDGER.with(|l| {
            let mut l = l.borrow_mut();
            l.next_ns += nanos(start, chosen);
            l.next_calls += 1;
            l.probe_ns += nanos(chosen, Instant::now());
        });
        action
    }

    fn admissible(&self) -> bool {
        self.0.admissible()
    }
}

/// Accumulated time and call count of one timed public function.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Total time inside the calls.
    pub ns: u64,
    /// Number of calls.
    pub calls: u64,
}

impl Span {
    /// Times one call.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    /// Mean time per call, in nanoseconds (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.ns, self.calls)
    }
}

/// `num / den` as a float, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The executable spec's view of a commit configuration.
pub fn spec_config(cfg: &rtc_core::CommitConfig) -> rtc_spec::SpecConfig {
    rtc_spec::SpecConfig {
        n: cfg.population(),
        t: cfg.fault_bound(),
        k: cfg.timing().k(),
        coin_count: cfg.coin_count(),
        piggyback_go: cfg.piggyback_go(),
        early_abort: cfg.early_abort(),
        decision_broadcast: cfg.decision_broadcast(),
    }
}
