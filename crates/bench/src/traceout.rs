//! `--trace-out` support for the figure harnesses.
//!
//! Every bench binary accepts `--trace-out[=DIR]` (or the `TSGEMM_TRACE_OUT`
//! environment variable): when present, the harness runs with tracing
//! enabled and dumps `trace.json` (Chrome `trace_event` format — load in
//! `chrome://tracing` or <https://ui.perfetto.dev>) plus `metrics.jsonl`
//! (one metrics object per rank) into the directory, defaulting to
//! `results/trace/<harness-name>/`. A per-phase roll-up table is printed to
//! stdout alongside.

use crate::report::results_dir;
use std::path::PathBuf;
use tsgemm_net::{
    phase_rollup, render_rollup, write_flight_jsonl, write_trace_files, FlightRecorder,
    MetricsRegistry, RankProfile, TraceConfig,
};

use crate::runners::RunTrace;

/// An activated `--trace-out` destination.
pub struct TraceOut {
    dir: PathBuf,
}

impl TraceOut {
    /// Parses `--trace-out`, `--trace-out=DIR`, or `--trace-out DIR` from
    /// the process arguments, falling back to the `TSGEMM_TRACE_OUT`
    /// variable (any value; a path selects the directory). `name` picks the
    /// default directory `results/trace/<name>/`.
    pub fn from_args(name: &str) -> Option<TraceOut> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut dir: Option<Option<String>> = None;
        let mut i = 0;
        while i < args.len() {
            if let Some(rest) = args[i].strip_prefix("--trace-out=") {
                dir = Some(Some(rest.to_string()));
            } else if args[i] == "--trace-out" {
                // Optional DIR operand: anything that isn't another flag.
                match args.get(i + 1) {
                    Some(next) if !next.starts_with("--") => {
                        dir = Some(Some(next.clone()));
                        i += 1;
                    }
                    _ => dir = Some(None),
                }
            }
            i += 1;
        }
        if dir.is_none() {
            if let Ok(v) = std::env::var("TSGEMM_TRACE_OUT") {
                dir = Some((!v.is_empty() && v != "1").then_some(v));
            }
        }
        dir.map(|d| TraceOut {
            dir: match d {
                Some(path) => PathBuf::from(path),
                None => results_dir().join("trace").join(name),
            },
        })
    }

    /// The run-level trace switch to pass into the harness run.
    pub fn config(&self) -> TraceConfig {
        TraceConfig::enabled()
    }

    /// Writes `trace.json` + `metrics.jsonl` + `flight.jsonl` for `trace`
    /// and prints the per-phase roll-up. `label` names the run in the
    /// printed header (a harness may dump several runs into subdirectories).
    pub fn dump(&self, label: &str, trace: &RunTrace) -> std::io::Result<()> {
        self.dump_parts(label, &trace.profiles, &trace.metrics, &trace.flights)
    }

    /// Like [`TraceOut::dump`] but over borrowed slices — for harnesses that
    /// drive [`tsgemm_net::World::run_traced`] directly.
    pub fn dump_parts(
        &self,
        label: &str,
        profiles: &[RankProfile],
        metrics: &[MetricsRegistry],
        flights: &[FlightRecorder],
    ) -> std::io::Result<()> {
        let dir = if label.is_empty() {
            self.dir.clone()
        } else {
            self.dir.join(label)
        };
        let (trace_path, metrics_path) = write_trace_files(&dir, profiles, metrics)?;
        let flight_path = write_flight_jsonl(&dir, flights)?;
        // With live telemetry on, the aggregator's final state rides along:
        // `snapshot.json` (the `/snapshot.json` document) and `stacks.folded`
        // (flamegraph input for `inspect flame`).
        if let Some(t) = tsgemm_net::telemetry::global() {
            let snap = t.snapshot();
            std::fs::write(dir.join("snapshot.json"), snap.to_json())?;
            std::fs::write(dir.join("stacks.folded"), snap.folded_text())?;
            println!(
                "wrote {} and {}",
                dir.join("snapshot.json").display(),
                dir.join("stacks.folded").display()
            );
        }
        let rollup = phase_rollup(profiles, metrics);
        println!("-- phase roll-up ({label}) --");
        println!("{}", render_rollup(&rollup));
        println!(
            "wrote {}, {} and {}",
            trace_path.display(),
            metrics_path.display(),
            flight_path.display()
        );
        Ok(())
    }
}

/// The [`TraceConfig`] for an optional [`TraceOut`]: enabled iff present.
pub fn trace_config(t: &Option<TraceOut>) -> TraceConfig {
    t.as_ref()
        .map(|t| t.config())
        .unwrap_or_else(TraceConfig::disabled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::{run_algo_traced, Algo};
    use tsgemm_net::CostModel;
    use tsgemm_sparse::gen::{erdos_renyi, random_tall};

    #[test]
    fn traced_run_dumps_loadable_files() {
        let n = 48;
        let d = 8;
        let acoo = erdos_renyi(n, 5.0, 771);
        let bcoo = random_tall(n, d, 0.5, 772);
        let tmp = std::env::temp_dir().join(format!(
            "tsgemm-traced_run_dumps_loadable_files-{}",
            std::process::id()
        ));
        let out = TraceOut { dir: tmp.clone() };
        let (_, trace) = run_algo_traced(
            &Algo::ts(),
            3,
            &acoo,
            &bcoo,
            &CostModel::default(),
            out.config(),
        );
        out.dump("unit", &trace).unwrap();
        let json = std::fs::read_to_string(tmp.join("unit").join("trace.json")).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"rank 0\""));
        assert!(json.contains("alg:bfetch"));
        let jsonl = std::fs::read_to_string(tmp.join("unit").join("metrics.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("predicted_bytes"));
        let flight = std::fs::read_to_string(tmp.join("unit").join("flight.jsonl")).unwrap();
        assert!(flight.contains("\"coll_done\""));
        assert!(flight.contains("alg:bfetch"));
        let _ = std::fs::remove_dir_all(tmp);
    }
}
