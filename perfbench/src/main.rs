//! The commit benchmark: three single-threaded, seeded workloads against
//! the simulator and `rtc-txn`, each checked against properties the
//! protocol must have. See `README.md`; `run.py` is the entry point.
//!
//! Usage: `perfbench --workload <sync-n16|chaos-mix|ledger> --seed <n>
//! --seconds <s> --trace <0|1>`. The last line of standard output is
//! the result as one JSON object.

mod chaos;
mod harness;
mod layers;
mod ledger;
mod sync;

use std::num::NonZeroUsize;
use std::process::ExitCode;

use harness::{result_json, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sync-n16" => sync::run(&args),
        "chaos-mix" => chaos::run(&args),
        "ledger" => ledger::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (sync-n16, chaos-mix, ledger)");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "machine: cores={cores} (available_parallelism) profile={profile} workers=1 \
         workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "operations: attempted={} failed={} rounds={} correct={}",
        outcome.attempted, outcome.failed, outcome.rounds, outcome.correct
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
