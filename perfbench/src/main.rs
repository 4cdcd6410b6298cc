//! adaphet's benchmark: one command, three workloads (`sweep`, `fig6`,
//! `serve`), end-to-end metrics from untraced runs and per-layer metrics
//! from traced runs. See README.md.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|fig6|serve> --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! Run from the repository root. The last stdout line is the JSON result;
//! the line before it is the machine fingerprint.

mod fig6;
mod host;
mod report;
mod serve;
mod sweep;
mod tuning;

use adaphet_metrics::Registry;
use report::{Report, END_TO_END, PER_LAYER};

/// Install the metrics registry (the traced run's work counters) and
/// start it empty. Everything measured before this ran untraced.
fn install_registry() -> Registry {
    let registry = adaphet_metrics::install_global(Registry::new());
    registry.clear();
    registry
}

/// The program's own work counters, as per-layer metrics. The response
/// cache must never serve the benchmark: a hit is a failed check.
fn layer_counters(registry: &Registry, report: &mut Report) {
    let c = |name: &str| registry.counter_value(name);
    for (metric, counter) in [
        ("sim.runs", "sim.runs"),
        ("sim.tasks_executed", "sim.tasks_executed"),
        ("lp.solves", "lp.solves"),
        ("gp.mle_searches", "gp.mle.searches"),
        ("gp.fit_full", "gp.fit.full"),
        ("gp.fit_incremental", "gp.fit.incremental"),
        ("gp.model_fits", "gp.model.fits"),
        ("eval.cache.hits", "eval.cache.hits"),
        ("eval.cache.misses", "eval.cache.misses"),
    ] {
        report.set(metric, c(counter));
    }
    let updates = c("gp.fit.incremental") + c("gp.fit.full");
    if updates > 0.0 {
        report.set("gp.incremental_share", c("gp.fit.incremental") / updates);
    }
    let hits = c("eval.cache.hits");
    report.check(hits == 0.0, || format!("the response cache served {hits} tables"));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut bless) =
        (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "--seconds needs an integer")?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--bless" => bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["sweep", "fig6", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (sweep, fig6, serve)"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bless,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let mut report = Report::default();
    let mut digests = tuning::Digests::default();
    let run = match args.workload.as_str() {
        "sweep" => sweep::run,
        "fig6" => fig6::run,
        _ => serve::run,
    };
    run(args.seed, args.seconds, args.trace, &mut report, &mut digests);
    if args.bless {
        digests.bless().expect("digests.txt is writable");
    }
    let line = if args.trace {
        report.set("bench.failed_ops", report.failed_ops());
        report.result_line(PER_LAYER, true)
    } else {
        report.result_line(END_TO_END, false)
    };
    let line = line.unwrap_or_else(|e| panic!("result does not match the declared metrics: {e}"));
    println!("{}", host::fingerprint());
    println!("{line}");
}
