//! Benchmark of the tsgemm TS-SpGEMM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path tsbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, distributes them, and runs
//! the distributed operation repeatedly for `--seconds`, checking every
//! output against a sequential oracle. With `--trace 0` the last line of
//! standard output is the end-to-end metrics as JSON; with `--trace 1` it is
//! the per-layer metrics of a traced pass. README.md describes the metrics
//! and the workloads.

mod check;
mod layers;
mod run;
mod spec;
mod stats;

use std::time::{Duration, Instant};
use tsgemm::apps::msbfs::{msbfs_ts, sequential_msbfs, BfsConfig};
use tsgemm::core::trace::CountingAlloc;
use tsgemm::core::ts_spgemm;
use tsgemm::net::CostModel;
use tsgemm::sparse::spgemm::{spgemm, AccumChoice};
use tsgemm::sparse::{BoolAndOr, Idx, PlusTimesF64, Semiring};

use check::{close, Tally};
use run::{Problem, Solve};
use spec::{Algo, Spec};

// Counts heap bytes, but only while the memory pass switches it on.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A metric as printed: name, unit, value.
pub type Metric = (String, &'static str, f64);

/// A run that has not finished by then has hung (a rank that panics alone
/// leaves its peers waiting in a collective); it is reported as failed.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                spec = Some(
                    spec::find(&val)
                        .ok_or_else(|| format!("unknown workload {val}; one of {names:?}"))?,
                );
            }
            "--seed" => seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let spec = spec.ok_or("--workload is required")?;
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("tsbench: {e}");
        std::process::exit(2);
    });
    let spec = args.spec;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if spec.p * spec.t > host_cpus {
        eprintln!(
            "tsbench: {} needs p × t = {} × {} CPUs, host has {host_cpus}; not running",
            spec.name, spec.p, spec.t
        );
        std::process::exit(3);
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("tsbench: no result after {WATCHDOG:?}; an operation hung");
        println!("{}", result_json(false, 1, 1, &[]));
        std::process::exit(1);
    });

    let mut tally = Tally::default();
    let t0 = Instant::now();
    let metrics = match spec.algo {
        Algo::Multiply { .. } => multiply(&args, host_cpus, &mut tally),
        Algo::Msbfs => msbfs(&args, host_cpus, &mut tally),
    };
    println!(
        "{}: {} of {} operations failed; {:.1} s in all",
        spec.name,
        tally.failed,
        tally.attempted,
        t0.elapsed().as_secs_f64()
    );
    let correct = tally.failed == 0;
    println!(
        "{}",
        result_json(correct, tally.attempted, tally.failed, &metrics)
    );
}

fn multiply(args: &Args, host_cpus: usize, tally: &mut Tally) -> Vec<Metric> {
    let spec = args.spec;
    let a = spec.graph(args.seed);
    let b = spec.tall(args.seed);
    let oracle = spgemm::<PlusTimesF64>(
        &a.to_csr::<PlusTimesF64>(),
        &b.to_csr::<PlusTimesF64>(),
        AccumChoice::Auto,
    );
    let cfg = spec.ts_config();
    let solve: &Solve<f64> =
        &|comm, op| ts_spgemm::<PlusTimesF64>(comm, &op.a, &op.ac, op.b(), &cfg).0;
    let prob = Problem::<PlusTimesF64> {
        spec,
        a: &a,
        b: Some(&b),
        oracle: &oracle,
        tag: "ts",
        solve,
        eq: close,
    };
    report(&prob, args, host_cpus, b.nnz(), tally, |m, tally| {
        let bfs = a.map_values(|_| true);
        layers::collect(&prob, m, &b, (&bfs, &spec.sources(&a, args.seed)), tally)
    })
}

fn msbfs(args: &Args, host_cpus: usize, tally: &mut Tally) -> Vec<Metric> {
    let spec = args.spec;
    let a = spec.graph(args.seed).map_values(|_| true);
    let sources: Vec<Idx> = spec.sources(&a, args.seed);
    let oracle = sequential_msbfs(&a.to_csr::<BoolAndOr>(), &sources);
    let cfg = BfsConfig::default();
    let solve: &Solve<bool> = &|comm, op| msbfs_ts(comm, &op.a, &op.ac, &sources, &cfg).0;
    let prob = Problem::<BoolAndOr> {
        spec,
        a: &a,
        b: None,
        oracle: &oracle,
        tag: "bfs",
        solve,
        eq: |x, y| x == y,
    };
    report(&prob, args, host_cpus, sources.len(), tally, |m, tally| {
        let f = layers::densest_frontier(&a, &sources);
        layers::collect(&prob, m, &f, (&a, &sources), tally)
    })
}

/// Measures `prob`, prints the fingerprint, the sample summary and the
/// cost-model drift, and returns the metrics of the requested pass.
fn report<S: Semiring>(
    prob: &Problem<S>,
    args: &Args,
    host_cpus: usize,
    nnz_b: usize,
    tally: &mut Tally,
    per_layer: impl FnOnce(&run::Measured<S::T>, &mut Tally) -> Vec<Metric>,
) -> Vec<Metric> {
    let spec = prob.spec;
    let m = prob.measure(args.seconds, args.trace, tally);
    let solve: Vec<f64> = m.untraced.iter().map(|o| o.solve_s).collect();
    let cpu: Vec<f64> = m.untraced.iter().map(|o| o.cpu_s).collect();
    let setup: Vec<f64> = m.setups.iter().map(|s| s.total_s).collect();
    let flops: u64 = m
        .untraced
        .first()
        .map_or(0, |o| o.profiles.iter().map(|p| p.total_flops()).sum());
    println!(
        "fingerprint: workload={} host_cpus={host_cpus} p={} t={} seed={} n={} nnz_a={} nnz_b={nnz_b} nnz_c={} flops={flops}",
        spec.name,
        spec.p,
        spec.t,
        args.seed,
        spec.n(),
        prob.a.nnz(),
        prob.oracle.nnz(),
    );
    summarize("solve_s per operation", &solve);
    summarize(
        &format!("solve_s per batch of {}", spec.batch),
        &m.batch_means,
    );
    summarize("setup_s", &setup);
    let modeled: Vec<f64> = m
        .untraced
        .iter()
        .map(|o| CostModel::default().model_run(&o.profiles).compute_secs)
        .collect();
    let (cpu_med, model_med) = (stats::median(&cpu), stats::median(&modeled));
    println!(
        "cost-model drift: modeled compute {model_med:.6} s, measured per-rank CPU {cpu_med:.6} s, measured/modeled {:.2}x",
        cpu_med / model_med
    );
    if args.trace {
        // With no operation to read back (all failed) only the failure shows.
        return if m.untraced.is_empty() {
            Vec::new()
        } else {
            per_layer(&m, tally)
        };
    }
    let success = 1.0 - tally.error_rate();
    vec![
        ("solve_s".into(), "s", stats::median(&m.batch_means)),
        ("setup_s".into(), "s", stats::median(&setup)),
        ("peak_mem_bytes".into(), "bytes", m.peak_mem_bytes as f64),
        ("success_rate".into(), "ratio", success),
    ]
}

/// Prints a timing's sample count, median, quartiles, tail percentile (when
/// there are enough samples) and steadiness flags.
fn summarize(name: &str, v: &[f64]) {
    if v.is_empty() {
        return;
    }
    let [q1, q2, q3] = stats::quartiles(v);
    let tail = stats::tail_percentile(v).map_or(String::new(), |(q, x)| format!(" p{q}={x:.6}"));
    let flags = stats::steadiness(v);
    eprintln!(
        "{name} samples: {:?}",
        v.iter()
            .map(|x| (x * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    println!(
        "{name}: n={} median={:.6} q1={q1:.6} q3={q3:.6} iqr/median={:.3}{tail} flags={}",
        v.len(),
        stats::median(v),
        (q3 - q1) / q2,
        if flags.is_empty() {
            "steady".to_string()
        } else {
            flags.join(",")
        }
    );
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names of the metrics `BENCHMARK.json` declares in `section`.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted name")].to_string())
            .collect()
    }

    /// Both passes of both kinds of workload run clean on a tiny input and
    /// print exactly the metrics `BENCHMARK.json` declares for them.
    #[test]
    fn passes_print_the_declared_metrics() {
        const BFS: Spec = Spec {
            algo: Algo::Msbfs,
            ..spec::TINY
        };
        for spec in [&spec::TINY, &BFS] {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    spec,
                    seed: 7,
                    seconds: 0.01,
                    trace,
                };
                let mut tally = Tally::default();
                let metrics = match spec.algo {
                    Algo::Multiply { .. } => multiply(&args, 2, &mut tally),
                    Algo::Msbfs => msbfs(&args, 2, &mut tally),
                };
                assert_eq!(tally.failed, 0, "{section} of {:?}", spec.algo);
                let names: Vec<String> = metrics.into_iter().map(|m| m.0).collect();
                assert_eq!(names, declared(section));
            }
        }
    }
}
