//! The run harness: launches `p` ranks as threads and collects the views
//! of their event logs.

use crate::comm::{Comm, GroupShared};
use crate::fault::{
    FailureBoard, FailureInfo, FaultCtx, FaultPlan, HangEntry, HangReport, RankFailure,
};
use crate::flight::FlightRecorder;
use crate::log::EventLog;
use crate::metrics::MetricsRegistry;
use crate::stats::RankProfile;
use crate::trace::TraceConfig;
use parking_lot::Mutex;
use std::sync::Arc;

/// Result of a distributed run: the per-rank return values plus the per-rank
/// execution profiles (compute segments and communication records).
pub struct RunOutput<R> {
    /// `results[i]` is what rank `i` returned.
    pub results: Vec<R>,
    /// `profiles[i]` is rank `i`'s execution log.
    pub profiles: Vec<RankProfile>,
    /// `metrics[i]` is rank `i`'s metrics registry (empty unless the run was
    /// traced and the algorithm recorded into it).
    pub metrics: Vec<MetricsRegistry>,
    /// `flights[i]` is rank `i`'s flight-recorder ring (always populated —
    /// the recorder is on regardless of tracing).
    pub flights: Vec<FlightRecorder>,
}

/// Result of a fault-aware run ([`World::try_run`]): per-rank outcomes
/// instead of an all-or-nothing panic, plus a hang diagnosis when anything
/// went wrong.
pub struct TryRunOutput<R> {
    /// `results[i]` is what rank `i` returned, or why it failed.
    pub results: Vec<Result<R, RankFailure>>,
    /// `profiles[i]` is rank `i`'s execution log (present even for failed
    /// ranks, up to the point of failure).
    pub profiles: Vec<RankProfile>,
    /// `metrics[i]` is rank `i`'s metrics registry (present even for failed
    /// ranks, up to the point of failure).
    pub metrics: Vec<MetricsRegistry>,
    /// `flights[i]` is rank `i`'s flight-recorder ring (present even for
    /// failed ranks — its tail is the failure's black box).
    pub flights: Vec<FlightRecorder>,
    /// Per-rank diagnosis — which collective sequence number and phase tag
    /// each rank was parked on — whenever at least one rank failed.
    pub hang_report: Option<HangReport>,
}

impl<R> TryRunOutput<R> {
    /// True when every rank returned a result.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }

    /// Unwraps into a plain [`RunOutput`]; panics (with the first failure)
    /// if any rank failed.
    pub fn expect_ok(self) -> RunOutput<R> {
        let results = self
            .results
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect();
        RunOutput {
            results,
            profiles: self.profiles,
            metrics: self.metrics,
            flights: self.flights,
        }
    }
}

fn panic_cause(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "rank panicked".to_string()
    }
}

/// How many flight-recorder events a failed rank's [`HangEntry`] embeds.
const HANG_TAIL_EVENTS: usize = 8;

/// Entry point to the simulated cluster.
pub struct World;

impl World {
    /// Runs `f` on `p` ranks (threads); blocks until all complete.
    ///
    /// Each rank receives a mutable [`Comm`] for the world group. Panics
    /// propagate: once every rank has finished, the lowest-ranked failing
    /// rank's panic is re-raised with its payload unchanged, matching the
    /// fail-fast behaviour of an MPI job.
    pub fn run<R, F>(p: usize, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        Self::run_traced(p, TraceConfig::disabled(), f)
    }

    /// [`World::run`] with the intra-rank kernel thread count pinned first:
    /// sets the process-wide `tsgemm-pool` size (overriding
    /// `TSGEMM_THREADS`), so every rank's pool-parallel kernels run on
    /// `threads` workers. Kernel outputs are thread-count independent by
    /// construction; this only changes intra-rank scheduling.
    pub fn run_with_threads<R, F>(p: usize, threads: usize, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        tsgemm_pool::set_threads(threads);
        Self::run(p, f)
    }

    /// [`World::run`] with algorithm-level trace instrumentation switched by
    /// `trace`: when enabled, instrumented algorithms record phase spans
    /// into the profiles and counters into the per-rank metrics registries.
    pub fn run_traced<R, F>(p: usize, trace: TraceConfig, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let (run, _) = Self::launch(p, &FaultPlan::none(), trace, f);
        let results = run
            .results
            .into_iter()
            .map(|out| out.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect();
        RunOutput {
            results,
            profiles: run.profiles,
            metrics: run.metrics,
            flights: run.flights,
        }
    }

    /// Fault-aware variant of [`World::run`]: runs `f` on `p` ranks under
    /// `plan` and reports per-rank outcomes instead of panicking.
    ///
    /// With a non-empty plan every rank gets a fault context: receives poll a
    /// shared [`FailureBoard`] (so a crashed peer surfaces as a typed
    /// [`crate::CommError::PeerExited`] rather than a hang) and barriers
    /// switch to a survivable message-based protocol. With an empty plan the
    /// communication paths are *exactly* those of [`World::run`] — no
    /// polling, no extra state — so results and profiles are identical to an
    /// uninstrumented run.
    ///
    /// A rank that panics (including injected crashes) is caught per-rank;
    /// its failure, and the parked positions of every rank that was waiting
    /// on it, are collected into the [`HangReport`].
    pub fn try_run<R, F>(p: usize, plan: &FaultPlan, f: F) -> TryRunOutput<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        Self::try_run_traced(p, plan, TraceConfig::disabled(), f)
    }

    /// [`World::try_run`] with trace instrumentation (see
    /// [`World::run_traced`]).
    pub fn try_run_traced<R, F>(
        p: usize,
        plan: &FaultPlan,
        trace: TraceConfig,
        f: F,
    ) -> TryRunOutput<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let (run, board) = Self::launch(p, plan, trace, f);
        let results: Vec<Result<R, RankFailure>> = run
            .results
            .into_iter()
            .enumerate()
            .map(|(rank, out)| {
                out.map_err(|payload| {
                    // Under an active plan the board holds the rank's first
                    // cause, which may predate the panic (an injected crash).
                    let (parked, cause) = board.failure_of(rank).map_or_else(
                        || (None, panic_cause(payload.as_ref())),
                        |info| (info.parked, info.cause),
                    );
                    RankFailure {
                        world_rank: rank,
                        parked,
                        cause,
                    }
                })
            })
            .collect();

        // Failed ranks get their flight-recorder tail embedded: the last few
        // events before death, straight from the ring.
        let hang_report = results.iter().any(Result::is_err).then(|| HangReport {
            entries: (0..p)
                .map(|rank| {
                    let fail = results[rank].as_ref().err();
                    HangEntry {
                        world_rank: rank,
                        failure: fail.map(|f| f.cause.clone()),
                        parked: fail
                            .and_then(|f| f.parked.clone().or_else(|| board.parked_of(rank))),
                        flight_tail: fail.map_or_else(Vec::new, |_| {
                            run.flights[rank].tail_strings(HANG_TAIL_EVENTS)
                        }),
                    }
                })
                .collect(),
        });

        TryRunOutput {
            results,
            profiles: run.profiles,
            metrics: run.metrics,
            flights: run.flights,
            hang_report,
        }
    }

    /// The one run path behind every entry point: creates the group and
    /// one event log per rank, runs `f` on `p` rank threads with each
    /// rank's panic caught, seals the telemetry run, and hands back every
    /// rank's outcome (result or panic payload), its log's views and the
    /// failure board.
    ///
    /// Only a non-empty `plan` gives the ranks a fault context, which makes
    /// receives poll the failure board and ranks report to it on exit.
    fn launch<R, F>(
        p: usize,
        plan: &FaultPlan,
        trace: TraceConfig,
        f: F,
    ) -> (RunOutput<std::thread::Result<R>>, Arc<FailureBoard>)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        assert!(p > 0, "need at least one rank");
        let group = GroupShared::new((0..p).collect());
        let inject = !plan.is_empty();
        let plan = Arc::new(plan.clone());
        let board = FailureBoard::new();
        let telemetry = crate::telemetry::global();
        let logs: Vec<EventLog> = (0..p).map(EventLog::new).collect();
        if let Some(t) = telemetry {
            t.begin_run(&logs);
        }

        let ranks: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = logs
                .iter()
                .enumerate()
                .map(|(rank, log)| {
                    let group = Arc::clone(&group);
                    let plan = Arc::clone(&plan);
                    let board = Arc::clone(&board);
                    let f = &f;
                    scope.spawn(move || {
                        let registry = Arc::new(Mutex::new(MetricsRegistry::new()));
                        let mut comm =
                            Comm::new(group, rank, log.clone(), Arc::clone(&registry), trace);
                        if inject {
                            comm.set_fault(FaultCtx::new(plan, Arc::clone(&board), rank));
                        }
                        let out =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)));
                        match &out {
                            Ok(_) if inject => board.mark_done(rank),
                            // Injected crashes already marked the board
                            // (first cause wins); this covers user panics.
                            Err(payload) if inject => board.mark_failed(FailureInfo {
                                world_rank: rank,
                                parked: board.parked_of(rank),
                                cause: panic_cause(payload.as_ref()),
                            }),
                            _ => {}
                        }
                        let metrics = std::mem::take(&mut *registry.lock());
                        (out, metrics, log.now())
                    })
                })
                .collect();
            // A join error is only reachable if the rank's bookkeeping
            // after `f` itself panicked.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });

        if let Some(t) = telemetry {
            // Seal the run, even a partly-failed one: the endpoint keeps
            // serving this final state, read from every log up to its end
            // (a crashed rank's ends on the collective that killed it).
            let _ = t.end_run();
        }
        // Fold the views here, not on the rank threads (see `crate::log`).
        let mut run = RunOutput {
            results: Vec::with_capacity(p),
            profiles: Vec::with_capacity(p),
            metrics: Vec::with_capacity(p),
            flights: Vec::with_capacity(p),
        };
        for ((out, metrics, end), log) in ranks.into_iter().zip(&logs) {
            run.results.push(out);
            run.profiles.push(log.profile(end, trace.on()));
            run.metrics.push(metrics);
            run.flights.push(log.flight());
        }
        (run, board)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids() {
        let out = World::run(6, |comm| (comm.rank(), comm.size()));
        for (i, &(r, s)) in out.results.iter().enumerate() {
            assert_eq!(r, i);
            assert_eq!(s, 6);
        }
        assert_eq!(out.profiles.len(), 6);
        assert_eq!(out.metrics.len(), 6);
    }

    #[test]
    fn profiles_returned_in_rank_order() {
        let out = World::run(3, |comm| {
            comm.add_flops(comm.rank() as u64 * 7);
        });
        for (i, p) in out.profiles.iter().enumerate() {
            assert_eq!(p.world_rank, i);
            assert_eq!(p.total_flops(), i as u64 * 7);
        }
    }

    #[test]
    #[should_panic(expected = "rank 2 says no")]
    fn rank_panic_propagates() {
        let _ = World::run(4, |comm| {
            if comm.rank() == 2 {
                panic!("rank 2 says no");
            }
        });
    }

    #[test]
    fn many_ranks_scale() {
        // Smoke test that a large thread count works on this host.
        let out = World::run(64, |comm| comm.allreduce(1u64, |a, b| a + b, "n"));
        assert!(out.results.iter().all(|&v| v == 64));
    }

    #[test]
    fn untraced_runs_have_empty_registries_and_trace_off() {
        let out = World::run(3, |comm| {
            assert!(!comm.trace_on());
            comm.barrier("b");
        });
        assert!(out.metrics.iter().all(|m| m.is_empty()));
    }

    #[test]
    fn traced_runs_collect_per_rank_registries() {
        use crate::trace::TraceConfig;
        let out = World::run_traced(4, TraceConfig::enabled(), |comm| {
            assert!(comm.trace_on());
            comm.metrics(|m| m.counter_add("app", "work", comm.rank() as u64));
            comm.barrier("b");
        });
        for (rank, m) in out.metrics.iter().enumerate() {
            assert_eq!(m.counter("app", "work"), rank as u64);
        }
    }

    #[test]
    fn split_shares_parent_registry() {
        use crate::trace::TraceConfig;
        let out = World::run_traced(4, TraceConfig::enabled(), |comm| {
            let mut sub = comm.split(comm.rank() % 2, comm.rank());
            assert!(sub.trace_on());
            sub.metrics(|m| m.counter_add("sub", "hits", 1));
            sub.barrier("sb");
            comm.metrics(|m| m.counter("sub", "hits"))
        });
        assert!(out.results.iter().all(|&c| c == 1));
    }
}
