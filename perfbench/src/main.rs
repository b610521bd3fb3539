//! `wade-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Exit codes: 0 when every output check passed, 1 when a check failed
//! (the result line says `"correct": false`), 2 on a usage or benchmark
//! error (no result line).

use wade_perfbench::{host::RunRecord, run, Args, Ctx};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: wade-perfbench --workload <campaign_full|fleet> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let record = RunRecord::start();
    let (workload, seed, trace) = (args.workload.clone(), args.seed, args.trace);
    let ctx = Ctx::new(args);
    let report = run(&ctx);
    drop(ctx);
    eprintln!("{}", record.line(&workload, seed, trace));
    eprint!("{}", report.table());
    for failure in &report.check_failures {
        eprintln!("check failed: {failure}");
    }
    match report.finish() {
        Ok(line) => {
            println!("{line}");
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
