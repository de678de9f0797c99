//! The run harness: launches `p` ranks as threads and collects profiles.

use crate::comm::{Comm, GroupShared};
use crate::fault::{
    FailureBoard, FailureInfo, FaultCtx, FaultPlan, HangEntry, HangReport, RankFailure,
};
use crate::flight::FlightRecorder;
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

fn unwrap_arcs<T>(arcs: Vec<Arc<Mutex<T>>>, clone_out: impl Fn(&T) -> T) -> Vec<T> {
    arcs.into_iter()
        .map(|arc| {
            Arc::try_unwrap(arc)
                .map(|m| m.into_inner())
                .unwrap_or_else(|arc| {
                    // A sub-communicator kept a clone alive past the rank
                    // function; copy the data out instead.
                    clone_out(&arc.lock())
                })
        })
        .collect()
}

/// What every rank of a run left behind, before failures are interpreted.
struct Launched<R> {
    /// Rank `i`'s return value, or the payload of its panic.
    outcomes: Vec<std::thread::Result<R>>,
    profiles: Vec<RankProfile>,
    metrics: Vec<MetricsRegistry>,
    flights: Vec<FlightRecorder>,
    board: Arc<FailureBoard>,
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
        let run = Self::launch(p, &FaultPlan::none(), trace, f);
        let results = run
            .outcomes
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
        let Launched {
            outcomes,
            profiles,
            metrics,
            flights,
            board,
        } = Self::launch(p, plan, trace, f);
        let results: Vec<Result<R, RankFailure>> = outcomes
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
                            flights[rank].tail_strings(HANG_TAIL_EVENTS)
                        }),
                    }
                })
                .collect(),
        });

        TryRunOutput {
            results,
            profiles,
            metrics,
            flights,
            hang_report,
        }
    }

    /// The one run path behind every entry point: creates the group and the
    /// per-rank sinks (profile, metrics, flight ring, telemetry), runs `f`
    /// on `p` rank threads with each rank's panic caught, seals the
    /// telemetry run, and hands back every rank's outcome and sinks.
    ///
    /// Only a non-empty `plan` gives the ranks a fault context, which makes
    /// receives poll the failure board and ranks report to it on exit.
    fn launch<R, F>(p: usize, plan: &FaultPlan, trace: TraceConfig, f: F) -> Launched<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        assert!(p > 0, "need at least one rank");
        let group = GroupShared::new((0..p).collect());
        let profiles: Vec<Arc<Mutex<RankProfile>>> = (0..p)
            .map(|r| Arc::new(Mutex::new(RankProfile::new(r))))
            .collect();
        let metrics: Vec<Arc<Mutex<MetricsRegistry>>> = (0..p)
            .map(|_| Arc::new(Mutex::new(MetricsRegistry::new())))
            .collect();
        let flights: Vec<Arc<Mutex<FlightRecorder>>> = (0..p)
            .map(|r| Arc::new(Mutex::new(FlightRecorder::new(r))))
            .collect();
        let inject = !plan.is_empty();
        let plan = Arc::new(plan.clone());
        let board = FailureBoard::new();
        let telemetry = crate::telemetry::global();
        let mut rank_tels: Vec<Option<crate::telemetry::RankTelemetry>> = telemetry
            .map(|t| t.begin_run(p).into_iter().map(Some).collect())
            .unwrap_or_default();

        let outcomes = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..p)
                .map(|rank| {
                    let group = Arc::clone(&group);
                    let profile = Arc::clone(&profiles[rank]);
                    let registry = Arc::clone(&metrics[rank]);
                    let flight = Arc::clone(&flights[rank]);
                    let plan = Arc::clone(&plan);
                    let board = Arc::clone(&board);
                    let tel = rank_tels.get_mut(rank).and_then(Option::take);
                    let f = &f;
                    scope.spawn(move || {
                        let mut comm =
                            Comm::new(group, rank, Arc::clone(&profile), registry, flight, trace);
                        if let Some(t) = tel {
                            comm.set_telemetry(t);
                        }
                        if inject {
                            comm.set_fault(FaultCtx::new(plan, Arc::clone(&board), rank));
                        }
                        let out =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)));
                        profile.lock().finish();
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
                        out
                    })
                })
                .collect();
            // A join error is only reachable if profile bookkeeping itself
            // panicked.
            handles
                .into_iter()
                .map(|h| h.join().and_then(|out| out))
                .collect()
        });

        if let Some(t) = telemetry {
            // Seal the run, even a partly-failed one: the endpoint keeps
            // serving this final state, and crashed ranks' rings were
            // drained up to the collective that killed them.
            let _ = t.end_run();
        }
        Launched {
            outcomes,
            profiles: unwrap_arcs(profiles, |p| p.snapshot()),
            metrics: unwrap_arcs(metrics, |m| m.clone()),
            flights: unwrap_arcs(flights, |fl| fl.clone()),
            board,
        }
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
