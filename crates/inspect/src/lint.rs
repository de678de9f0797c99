//! Cross-artifact consistency lint.
//!
//! The metrics registry and the Chrome trace are produced by different code
//! paths from the same run; a phase that appears in `metrics.jsonl` but has
//! no slice in `trace.json` means an instrumentation site records counters
//! without a span/collective — a hole in the timeline. That is an error.
//! The reverse (trace-only phases) is only a warning: spans are legitimate
//! without counters.

use crate::{RankMetrics, TraceEvent};
use std::collections::BTreeSet;

/// Synthetic registry phases that have no timeline slice by construction.
const PSEUDO_PHASES: &[&str] = &["(tail)", "(compute)"];

/// Lint outcome.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Metrics phases with no trace event — failures.
    pub errors: Vec<String>,
    /// Trace phases with no metrics entry — informational.
    pub warnings: Vec<String>,
}

impl LintReport {
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Checks that every phase tag in the metrics also appears in the trace.
pub fn lint(ranks: &[RankMetrics], events: &[TraceEvent]) -> LintReport {
    let metric_phases: BTreeSet<&str> = ranks
        .iter()
        .flat_map(|r| r.phases.keys().map(String::as_str))
        .filter(|p| !PSEUDO_PHASES.contains(p))
        .collect();
    let trace_phases: BTreeSet<&str> = events
        .iter()
        .map(|e| e.name.as_str())
        .filter(|n| *n != "compute")
        .collect();

    let mut report = LintReport::default();
    for phase in &metric_phases {
        if !trace_phases.contains(phase) {
            report
                .errors
                .push(format!("phase {phase:?} has metrics but no trace events"));
        }
    }
    for phase in &trace_phases {
        if !metric_phases.contains(phase) {
            report
                .warnings
                .push(format!("phase {phase:?} is traced but has no metrics"));
        }
    }
    report
}

/// Renders the lint result.
pub fn render(report: &LintReport) -> String {
    let mut out = String::new();
    for e in &report.errors {
        out.push_str(&format!("error: {e}\n"));
    }
    for w in &report.warnings {
        out.push_str(&format!("warning: {w}\n"));
    }
    out.push_str(&format!(
        "lint: {} error(s), {} warning(s)\n",
        report.errors.len(),
        report.warnings.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn ranks_with_phases(phases: &[&str]) -> Vec<RankMetrics> {
        let mut m = BTreeMap::new();
        for p in phases {
            m.insert(p.to_string(), BTreeMap::new());
        }
        vec![RankMetrics { rank: 0, phases: m }]
    }

    fn events_named(names: &[&str]) -> Vec<TraceEvent> {
        names
            .iter()
            .map(|n| TraceEvent {
                name: n.to_string(),
                pid: 0,
                ts_s: 0.0,
                dur_s: 1.0,
                kind: None,
            })
            .collect()
    }

    #[test]
    fn consistent_artifacts_pass() {
        let rep = lint(
            &ranks_with_phases(&["ts:bfetch", "(tail)"]),
            &events_named(&["ts:bfetch", "compute"]),
        );
        assert!(rep.ok());
        assert!(rep.warnings.is_empty());
    }

    #[test]
    fn metrics_only_phase_is_an_error() {
        let rep = lint(
            &ranks_with_phases(&["ts:bfetch", "ts:ghost"]),
            &events_named(&["ts:bfetch"]),
        );
        assert!(!rep.ok());
        assert!(rep.errors[0].contains("ts:ghost"));
        assert!(render(&rep).contains("1 error(s)"));
    }

    #[test]
    fn trace_only_phase_is_a_warning() {
        let rep = lint(
            &ranks_with_phases(&["ts:bfetch"]),
            &events_named(&["ts:bfetch", "ts:pack"]),
        );
        assert!(rep.ok());
        assert_eq!(rep.warnings.len(), 1);
    }
}
