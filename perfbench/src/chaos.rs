//! `chaos-mix`: seeded chaos schedules (`ChaosSchedule::generate` with
//! the default `ScheduleParams`: n = 3–5, crashes, degraded t+1 crashes
//! with snapshot and amnesiac restarts, delay spikes, partitions,
//! duplication, reordering) through the campaign's batched simulator
//! path, `run_batch_on_sim`, on one worker.
//!
//! Operation: one campaign chunk of [`CHUNK`] consecutive schedules, run
//! as `run_campaign` runs a chunk on one worker: grouped by population,
//! each group one `run_batch_on_sim` call, one pool recycled throughout.
//! (A single group is too coarse a unit: about half the groups hold a
//! stalled schedule and half do not, so the median group time jumped
//! between the two by a fifth from seed to seed.) Round:
//! [`CHUNKS_PER_ROUND`] chunks generated from `--seed`.
//!
//! The traced run rebuilds each group from the same public parts (the
//! driver builds its simulator privately), with timing wrappers around
//! every automaton and adversary, and must reach the same outcome and
//! decided value per schedule.

use std::collections::BTreeMap;
use std::mem;

use rtc_chaos::{
    classify_verdict, run_batch_on_sim, ChaosAdversary, ChaosDelay, ChaosOutcome, ChaosRestart,
    ChaosSchedule, ScheduleParams,
};
use rtc_core::properties::{verify_commit_facts, verify_commit_run};
use rtc_core::{commit_population, CommitAutomaton, CommitConfig, CommitMsg};
use rtc_model::{ProcessorId, Recoverable, SeedCollection, TimingParams, Value};
use rtc_sim::{
    ParBatchPool, ParBatchSim, ParBatchSimBuilder, RunReport, Sim, SimBuilder, StopWhen, Trace,
};
use rtc_spec::{ReviveKind, RunSpec};

use crate::harness::{self, mix, time_op, Args, Checks, EndToEnd, Outcome, Traced};
use crate::layers::{self, spec_config, Span, Timed};

/// Schedules per chunk: `run_campaign`'s batched chunk width.
pub const CHUNK: u64 = 64;
/// Chunks per round.
pub const CHUNKS_PER_ROUND: u64 = 768;
/// `run_batch_on_sim` cuts a lane over to the serial engine after this
/// many events (the driver's `SERIAL_CUTOVER_EVENTS`, private there).
const SERIAL_CUTOVER_EVENTS: u64 = 2048;

/// Per-schedule event cap. A schedule here either decides within a few
/// hundred events (232 at most over 6144 schedules of seeds 1–3) or
/// never does: about 4% stall, most of them because the coordinator
/// crashed before its `GO` went out. A stalled schedule runs to the
/// cap, so the cap sets its cost. The campaign default (400k events)
/// would make stalls over 95% of the run and the run's cost a count of
/// stalls; twice the driver's serial cutover still sends every stall
/// down the driver's whole path (batched prefix, serial rerun, in-run
/// spec lint) while leaving the deciding schedules a visible share.
pub const MAX_EVENTS: u64 = 2 * SERIAL_CUTOVER_EVENTS;

/// The round's chunks in campaign order, each as its population groups
/// by ascending population. `generate` times each
/// `ChaosSchedule::generate` call.
pub fn chunks(seed: u64, generate: &mut Span) -> Vec<Vec<Vec<ChaosSchedule>>> {
    let params = ScheduleParams::default();
    let campaign = mix(seed);
    (0..CHUNKS_PER_ROUND)
        .map(|chunk| {
            let mut by_n: BTreeMap<usize, Vec<ChaosSchedule>> = BTreeMap::new();
            for i in chunk * CHUNK..(chunk + 1) * CHUNK {
                let s = generate.time(|| ChaosSchedule::generate(&params, campaign, i));
                by_n.entry(s.n).or_default().push(s);
            }
            by_n.into_values().collect()
        })
        .collect()
}

fn config(s: &ChaosSchedule) -> CommitConfig {
    CommitConfig::new(s.n, s.t, TimingParams::default())
        .expect("schedule population accepts its fault bound")
        .with_early_abort(s.early_abort)
}

/// The validity conditions the untraced run can check, taken from the
/// schedule itself. Abort-Validity: a Zero vote never leads to commit.
/// Commit-Validity: a plan with all-commit votes and no crash, delay,
/// partition or link flap cannot make a message late, so if the driver
/// saw no late delivery the run must decide commit.
///
/// The driver's own outcome is not trusted here: its on-time test skips
/// messages still undelivered at the end of the run, so it can call a
/// run that timed out on a partitioned peer on-time and classify the
/// resulting abort as a Commit-Validity violation.
pub fn check_schedule(
    s: &ChaosSchedule,
    decision: Option<Value>,
    late_messages: u64,
) -> Result<(), String> {
    if s.votes.contains(&Value::Zero) && decision == Some(Value::One) {
        return Err("a Zero vote was cast but the run decided commit".into());
    }
    let quiet_plan = s.crashes.is_empty()
        && s.delay == ChaosDelay::None
        && s.partitions.is_empty()
        && s.flaps.is_empty();
    if quiet_plan
        && late_messages == 0
        && s.votes.iter().all(|v| *v == Value::One)
        && decision != Some(Value::One)
    {
        return Err(format!(
            "failure-free on-time all-commit run decided {decision:?}"
        ));
    }
    Ok(())
}

/// Whether no message was late by the first decision (Section 2.2: a
/// message is late when some processor takes more than `k` steps
/// between its sending and its receiving event). A message delivered by
/// then counts as the trace has it. A message still pending is already
/// doomed when some processor has taken more than `k` steps since it was
/// sent, or its receiver has taken `k`: receiving it is one more step.
pub fn on_time_until_first_decision(trace: &Trace, k: u64) -> bool {
    let Some(first) = trace.decisions().iter().map(|d| d.event).min() else {
        return true;
    };
    let n = trace.population();
    trace
        .messages()
        .iter()
        .filter(|m| m.send_event < first)
        .all(|m| {
            let end = m.recv_event.map_or(first, |r| r.min(first));
            let within =
                ProcessorId::all(n).all(|p| trace.steps_between(p, m.send_event, end) <= k);
            let pending = m.recv_event.is_none_or(|r| r > first);
            within && !(pending && trace.steps_between(m.to, m.send_event, first) >= k)
        })
}

/// The conditions the traced run checks on a lane's full trace.
/// Agreement: every decision carries one value. Commit-Validity: with
/// all-commit votes, no crash, and no message late by the first
/// decision, that decision is commit (a run whose prefix is on-time can
/// be extended to an on-time run, in which the paper requires commit).
pub fn check_trace(s: &ChaosSchedule, trace: &Trace, k: u64) -> Result<(), String> {
    let decisions = trace.decisions();
    if let Some(d) = decisions.iter().find(|d| d.value != decisions[0].value) {
        return Err(format!(
            "Agreement: {} decided {:?}, {} decided {:?}",
            decisions[0].p, decisions[0].value, d.p, d.value
        ));
    }
    let first = decisions.iter().min_by_key(|d| d.event);
    if s.votes.iter().all(|v| *v == Value::One)
        && trace.faulty().is_empty()
        && on_time_until_first_decision(trace, k)
    {
        if let Some(d) = first.filter(|d| d.value != Value::One) {
            return Err(format!(
                "Commit-Validity: {} decided {:?} in a failure-free on-time prefix",
                d.p, d.value
            ));
        }
    }
    Ok(())
}

/// Restarts of `s` with their due events, as the driver schedules them:
/// a fixed number of rotations of n events after the crash trigger.
fn restart_plan(s: &ChaosSchedule) -> Vec<(ChaosRestart, u64)> {
    let n = s.n as u64;
    s.restarts
        .iter()
        .map(|r| {
            let crash_step = s.crash_of(r.victim).map_or(0, |c| c.at_step);
            (r.clone(), (crash_step + r.delay_steps) * n)
        })
        .collect()
}

/// Takes the restarts due at `event` whose victim has crashed; a due
/// restart whose crash has not fired yet is retried two rotations later
/// or dropped at the cap, as the driver does.
fn due_restarts(
    pending: &mut Vec<(ChaosRestart, u64)>,
    event: u64,
    n: u64,
    crashed: impl Fn(ProcessorId) -> bool,
) -> Vec<ChaosRestart> {
    let mut due = Vec::new();
    let mut i = 0;
    while i < pending.len() {
        if pending[i].1 > event {
            i += 1;
        } else if crashed(pending[i].0.victim) {
            due.push(pending.remove(i).0);
        } else {
            pending[i].1 = event + 2 * n;
            if pending[i].1 >= MAX_EVENTS {
                pending.remove(i);
            } else {
                i += 1;
            }
        }
    }
    due
}

/// The automaton a restart revives: the crash-time state, or an
/// amnesiac observer built from the initial state.
fn revived(
    r: &ChaosRestart,
    cfg: CommitConfig,
    s: &ChaosSchedule,
    crashed: &Timed<CommitAutomaton>,
) -> (Timed<CommitAutomaton>, ReviveKind) {
    if r.from_snapshot {
        (Timed::restore(&crashed.snapshot()), ReviveKind::Snapshot)
    } else {
        let fresh = CommitAutomaton::new(cfg, r.victim, s.votes[r.victim.index()]);
        (
            Timed::restore_amnesiac(&fresh.snapshot()),
            ReviveKind::Amnesiac,
        )
    }
}

fn spec_run(s: &ChaosSchedule) -> RunSpec {
    RunSpec::new(
        spec_config(&config(s)),
        SeedCollection::new(s.seed),
        s.votes.clone(),
    )
}

/// One schedule rebuilt on the serial engine, as the driver's cutover
/// fallback runs it: segments, restarts, verdict, and the in-run lint.
struct SerialRun {
    sim: Sim<Timed<CommitAutomaton>>,
    result: (ChaosOutcome, Option<Value>),
    late: u64,
    lint_error: Option<String>,
}

fn traced_serial(s: &ChaosSchedule, t: &mut Traced) -> SerialRun {
    let cfg = config(s);
    let procs = commit_population(cfg, &s.votes)
        .into_iter()
        .map(Timed)
        .collect();
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(s.seed))
        .fault_budget(s.crashes.len().max(s.t))
        .build(procs)
        .expect("population matches config");
    let mut adv = Timed(ChaosAdversary::new(s));
    let mut pending = restart_plan(s);
    let mut revives = Vec::new();
    let report = loop {
        pending.sort_by_key(|(_, due)| *due);
        let cap = pending
            .first()
            .map_or(MAX_EVENTS, |(_, due)| (*due).min(MAX_EVENTS))
            .max(1);
        let met = t
            .engine
            .time(|| sim.run_until(&mut adv, cap, StopWhen::AllNonfaultyDecided))
            .expect("chaos adversary stays within the model");
        if met || cap >= MAX_EVENTS {
            break sim.report(!met, true);
        }
        let event = sim.events_executed();
        for r in due_restarts(&mut pending, event, s.n as u64, |p| sim.is_crashed(p)) {
            let (auto, kind) = revived(&r, cfg, s, sim.automaton(r.victim));
            revives.push(kind);
            sim.revive(r.victim, auto)
                .expect("victim is crashed at its restart");
        }
    };
    let verdict = verify_commit_run(&s.votes, &report, sim.trace(), cfg.timing());
    let mut outcome = classify_verdict(&verdict);
    let mut lint_error = None;
    if outcome.is_safe() {
        let lint = t
            .lint_in_op
            .time(|| rtc_spec::lint_trace(&spec_run(s), sim.trace(), &revives));
        match lint {
            Ok(c) => t.lint_events += c.events as u64,
            Err(e) => {
                outcome = ChaosOutcome::Violation(format!("spec conformance: {e}"));
                lint_error = Some(e.to_string());
            }
        }
    }
    SerialRun {
        result: (outcome, report.decided_values().first().copied()),
        late: sim.lateness().late_count(),
        lint_error,
        sim,
    }
}

/// One group rebuilt on the batched engine, as `run_batch_on_sim` runs
/// it, with the cutover lanes finished by [`traced_serial`].
struct TracedGroup {
    batch: ParBatchSim<Timed<CommitAutomaton>>,
    results: Vec<(ChaosOutcome, Option<Value>)>,
    late: Vec<u64>,
    revives: Vec<Vec<ReviveKind>>,
    serial: Vec<Option<SerialRun>>,
}

fn traced_group(
    group: &[ChaosSchedule],
    pool: ParBatchPool<CommitMsg>,
    t: &mut Traced,
) -> TracedGroup {
    let b = group.len();
    let n = group[0].n as u64;
    let cfgs: Vec<CommitConfig> = group.iter().map(config).collect();
    let mut builder = ParBatchSimBuilder::from_pool(pool, 1);
    for (s, cfg) in group.iter().zip(&cfgs) {
        builder
            .instance(
                SimBuilder::new(cfg.timing(), SeedCollection::new(s.seed))
                    .fault_budget(s.crashes.len().max(s.t)),
                commit_population(*cfg, &s.votes)
                    .into_iter()
                    .map(Timed)
                    .collect(),
            )
            .expect("a group shares one population");
    }
    let mut batch = builder.build();
    let mut advs: Vec<Timed<ChaosAdversary>> = group
        .iter()
        .map(|s| Timed(ChaosAdversary::new(s)))
        .collect();
    let mut pending: Vec<Vec<(ChaosRestart, u64)>> = group.iter().map(restart_plan).collect();
    let mut revives = vec![Vec::new(); b];
    let cutover = SERIAL_CUTOVER_EVENTS.max(2 * n).min(MAX_EVENTS);
    let mut reports: Vec<Option<RunReport>> = vec![None; b];
    let mut fallback = vec![false; b];
    let mut caps = vec![0u64; b];
    loop {
        let mut any = false;
        for l in 0..b {
            if reports[l].is_some() || fallback[l] {
                caps[l] = 0;
                continue;
            }
            pending[l].sort_by_key(|(_, due)| *due);
            caps[l] = pending[l]
                .first()
                .map_or(cutover, |(_, due)| (*due).min(cutover))
                .max(1);
            any = true;
        }
        if !any {
            break;
        }
        let met = t
            .engine
            .time(|| batch.run_segment(&mut advs, &caps, StopWhen::AllNonfaultyDecided))
            .expect("chaos adversary stays within the model");
        for l in 0..b {
            if reports[l].is_some() || fallback[l] {
                continue;
            }
            if met[l] || caps[l] >= MAX_EVENTS {
                reports[l] = Some(batch.report(l, !met[l], true));
                continue;
            }
            let event = batch.events_executed(l);
            if event >= cutover {
                fallback[l] = true;
                continue;
            }
            for r in due_restarts(&mut pending[l], event, n, |p| batch.is_crashed(l, p)) {
                let (auto, kind) = revived(&r, cfgs[l], &group[l], batch.automaton(l, r.victim));
                revives[l].push(kind);
                batch
                    .revive(l, r.victim, auto)
                    .expect("victim is crashed at its restart");
            }
        }
    }
    let mut results = Vec::with_capacity(b);
    let mut late = Vec::with_capacity(b);
    let mut serial = Vec::with_capacity(b);
    for l in 0..b {
        let Some(report) = reports[l].take() else {
            let run = traced_serial(&group[l], t);
            results.push(run.result.clone());
            late.push(run.late);
            serial.push(Some(run));
            continue;
        };
        let verdict = verify_commit_facts(
            &group[l].votes,
            &report,
            batch.failure_free(l),
            batch.is_on_time(l, cfgs[l].timing().k()),
        );
        results.push((
            classify_verdict(&verdict),
            report.decided_values().first().copied(),
        ));
        late.push(batch.lateness(l).late_count());
        serial.push(None);
    }
    TracedGroup {
        batch,
        results,
        late,
        revives,
        serial,
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut e2e = EndToEnd::default();
    let mut traced = Traced::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up: generate the round's schedules, group them, and warm the
    // pool on the first chunk.
    let (chunks, mut pool) = harness::setup(&mut e2e.setup_s, || {
        let mut generate = Span::default();
        let chunks = chunks(args.seed, &mut generate);
        let mut pool = ParBatchPool::new();
        for group in &chunks[0] {
            let refs: Vec<&ChaosSchedule> = group.iter().collect();
            pool = run_batch_on_sim(&refs, MAX_EVENTS, 1, pool).1;
        }
        traced.generate = generate;
        (chunks, pool)
    });
    let mut traced_pool = ParBatchPool::new();

    let rounds = harness::rounds(args.seconds, || {
        for (c, chunk) in chunks.iter().enumerate() {
            attempted += 1;
            let (results, op_s) = time_op(|| {
                let mut results = Vec::with_capacity(chunk.len());
                for group in chunk {
                    let refs: Vec<&ChaosSchedule> = group.iter().collect();
                    let (reports, spent) =
                        run_batch_on_sim(&refs, MAX_EVENTS, 1, mem::take(&mut pool));
                    pool = spent;
                    results.push(reports);
                }
                results
            });
            let mut ok = true;
            for (group, reports) in chunk.iter().zip(&results) {
                for (s, (report, decision)) in group.iter().zip(reports) {
                    if let Err(e) = check_schedule(s, *decision, report.late_messages) {
                        checks.fail(format!("chunk {c} schedule seed {}: {e}", s.seed));
                        ok = false;
                    }
                }
            }
            if !ok {
                failed += 1;
            }
            let decided = results
                .iter()
                .flatten()
                .filter(|(r, _)| r.verdict.deciding)
                .count() as u64;
            if !args.trace {
                e2e.record(c, op_s, decided);
                continue;
            }
            traced.untraced_ns += (op_s * 1e9) as u64;
            traced.decisions += decided;
            for (group, reports) in chunk.iter().zip(&results) {
                let (mut tg, t_s) =
                    time_op(|| traced_group(group, mem::take(&mut traced_pool), &mut traced));
                traced.traced_ns += (t_s * 1e9) as u64;
                for (l, s) in group.iter().enumerate() {
                    let (report, decision) = &reports[l];
                    checks.require(
                        tg.results[l] == (report.outcome.clone(), *decision)
                            && tg.late[l] == report.late_messages,
                        || format!("chunk {c} schedule seed {}: traced run differs", s.seed),
                    );
                    traced.events += tg.batch.events_executed(l);
                    let trace = match &tg.serial[l] {
                        Some(run) => {
                            traced.events += run.sim.events_executed();
                            if let Some(e) = &run.lint_error {
                                checks.fail(format!("schedule seed {}: {e}", s.seed));
                            }
                            run.sim.trace()
                        }
                        None => {
                            let spec = spec_run(s);
                            let trace = tg.batch.lane_trace(l);
                            match traced
                                .lint_check
                                .time(|| rtc_spec::lint_trace(&spec, trace, &tg.revives[l]))
                            {
                                Ok(c) => traced.lint_events += c.events as u64,
                                Err(e) => checks.fail(format!("schedule seed {}: {e}", s.seed)),
                            }
                            trace
                        }
                    };
                    if let Err(e) = check_trace(s, trace, TimingParams::default().k()) {
                        checks.fail(format!("schedule seed {}: {e}", s.seed));
                    }
                    traced
                        .ticks
                        .extend(trace.decisions().iter().map(|d| d.clock.ticks()));
                }
                traced_pool = tg.batch.into_pool();
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
    use rtc_chaos::run_on_sim_with_decision;

    use super::*;

    fn schedules(seed: u64) -> impl Iterator<Item = ChaosSchedule> {
        (0..).map(move |i| ChaosSchedule::generate(&ScheduleParams::default(), mix(seed), i))
    }

    fn trace_of(s: &ChaosSchedule) -> Trace {
        let mut t = Traced::default();
        traced_serial(s, &mut t).sim.trace().clone()
    }

    #[test]
    fn a_flipped_decision_fails_abort_validity() {
        let s = schedules(5)
            .find(|s| s.votes.contains(&Value::Zero))
            .expect("a schedule with a Zero vote");
        let (report, decision) = run_on_sim_with_decision(&s, MAX_EVENTS);
        assert_eq!(decision, Some(Value::Zero));
        check_schedule(&s, decision, report.late_messages).unwrap();
        assert!(check_schedule(&s, Some(Value::One), report.late_messages).is_err());
    }

    #[test]
    fn a_flipped_decision_fails_commit_validity() {
        let s = schedules(5)
            .find(|s| {
                s.crashes.is_empty()
                    && s.delay == ChaosDelay::None
                    && s.partitions.is_empty()
                    && s.flaps.is_empty()
                    && s.votes.iter().all(|v| *v == Value::One)
            })
            .expect("a quiet all-commit schedule");
        let (report, decision) = run_on_sim_with_decision(&s, MAX_EVENTS);
        assert_eq!((decision, report.late_messages), (Some(Value::One), 0));
        check_schedule(&s, decision, 0).unwrap();
        assert!(check_schedule(&s, Some(Value::Zero), 0).is_err());
        assert!(on_time_until_first_decision(&trace_of(&s), 4));
    }

    #[test]
    fn an_abort_behind_a_partition_is_not_an_on_time_violation() {
        // Seed 1, index 4085: all five vote commit, no crash, and p3 is
        // cut off from step 3 to 11. The others time out and abort while
        // p3's messages are still pending, 7 steps after they were sent.
        // The driver reports a Commit-Validity violation because it only
        // counts delivered messages as late; the prefix was not on-time.
        let s = ChaosSchedule::generate(&ScheduleParams::default(), mix(1), 4085);
        assert_eq!(s.seed, 9450542287550590911);
        let (report, decision) = run_on_sim_with_decision(&s, MAX_EVENTS);
        assert_eq!(decision, Some(Value::Zero));
        assert_eq!(
            report.outcome,
            ChaosOutcome::Violation("commit validity".into())
        );
        let trace = trace_of(&s);
        assert!(!on_time_until_first_decision(&trace, 4));
        check_trace(&s, &trace, 4).unwrap();
        check_schedule(&s, decision, report.late_messages).unwrap();
    }

    #[test]
    fn an_abort_on_a_message_pending_k_steps_is_not_an_on_time_violation() {
        // Seed 1, index 36220: three all-commit processors, p1 cut off
        // from step 0 to 4. p1's vote reaches the wire at event 14; p0
        // takes its 4th step after that at event 25 without receiving
        // it, times out and aborts. Receiving it later makes it late,
        // so no on-time run extends this prefix.
        let s = ChaosSchedule::generate(&ScheduleParams::default(), mix(1), 36220);
        assert_eq!(s.seed, 1993957161811441442);
        let (report, decision) = run_on_sim_with_decision(&s, MAX_EVENTS);
        assert_eq!(decision, Some(Value::Zero));
        assert_eq!(
            report.outcome,
            ChaosOutcome::Violation("commit validity".into())
        );
        let trace = trace_of(&s);
        assert!(!on_time_until_first_decision(&trace, 4));
        check_trace(&s, &trace, 4).unwrap();
    }

    #[test]
    fn the_rebuilt_group_matches_the_driver() {
        let chunks = chunks(9, &mut Span::default());
        let mut t = Traced::default();
        for group in chunks.iter().take(4).flatten() {
            let refs: Vec<&ChaosSchedule> = group.iter().collect();
            let (results, _) = run_batch_on_sim(&refs, MAX_EVENTS, 1, ParBatchPool::new());
            let tg = traced_group(group, ParBatchPool::new(), &mut t);
            for (l, (report, decision)) in results.iter().enumerate() {
                assert_eq!(tg.results[l], (report.outcome.clone(), *decision));
                assert_eq!(tg.late[l], report.late_messages);
            }
        }
        assert!(layers::take().steps > 0);
    }
}
