//! Set-up and timed execution of one workload's distributed operation.
//!
//! Set-up goes from the replicated input COO to operands ready on every
//! rank (`partition_coo` + `DistCsr::from_local_triplets` +
//! `ColBlocks::build`). One operation runs on a fresh `World` of `p` ranks
//! with the pool pinned to `t` threads; it is timed on rank 0 from the
//! barrier after operands are ready to the barrier after every rank holds
//! its result, so rank start-up and the oracle check stay outside.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;
use tsgemm::core::dist::partition_coo;
use tsgemm::core::trace::alloc;
use tsgemm::core::{ColBlocks, DistCsr};
use tsgemm::net::stats::bytes_sent_tagged;
use tsgemm::net::{Comm, RankProfile, TraceConfig, World};
use tsgemm::sparse::{Coo, Csr, Idx, Semiring};

use crate::check::{blocks_match, Tally};
use crate::spec::Spec;

/// One rank's operands: its row block of `A`, its column block `A^c`, and
/// (for the multiply) its row block of `B`.
pub struct Operands<T> {
    pub a: DistCsr<T>,
    pub ac: ColBlocks<T>,
    b: Option<DistCsr<T>>,
}

impl<T> Operands<T> {
    pub fn b(&self) -> &DistCsr<T> {
        self.b
            .as_ref()
            .expect("this workload distributes a B operand")
    }
}

/// A workload's distributed operation on one rank.
pub type Solve<'a, T> = dyn Fn(&mut Comm, &Operands<T>) -> Csr<T> + Sync + 'a;

pub struct SetupOut<T> {
    pub ops: Vec<Operands<T>>,
    pub times: SetupTimes,
}

#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// Replicated COO to operands ready, seconds.
    pub total_s: f64,
    pub partition_s: f64,
    /// Largest per-rank `from_local_triplets` time (A and B).
    pub local_csr_s: f64,
    /// Largest per-rank `ColBlocks::build` time.
    pub colblocks_s: f64,
}

type Trips<T> = Vec<(Idx, Idx, T)>;
/// One rank's share of the partitioned input, taken once by that rank.
type Slot<T> = Mutex<Option<(Trips<T>, Option<Trips<T>>)>>;

pub fn setup<S: Semiring>(spec: &Spec, a: &Coo<S::T>, b: Option<&Coo<S::T>>) -> SetupOut<S::T> {
    let dist = spec.dist();
    let start = Instant::now();
    let pa = partition_coo(a, dist);
    let mut pb: Vec<Option<Trips<S::T>>> = match b {
        Some(b) => partition_coo(b, dist).into_iter().map(Some).collect(),
        None => (0..spec.p).map(|_| None).collect(),
    };
    let partition_s = start.elapsed().as_secs_f64();
    // Each rank takes its own triplets by value (no copy on the timed path).
    let slots: Vec<Slot<S::T>> = pa
        .into_iter()
        .zip(pb.iter_mut())
        .map(|(ta, tb)| Mutex::new(Some((ta, tb.take()))))
        .collect();
    let (n, d) = (a.ncols(), b.map_or(0, |b| b.ncols()));
    let out = World::run_with_threads(spec.p, spec.t, |comm| {
        let me = comm.rank();
        let (ta, tb) = slots[me]
            .lock()
            .expect("setup slot lock")
            .take()
            .expect("each rank takes its triplets once");
        let t0 = Instant::now();
        let a = DistCsr::from_local_triplets::<S>(dist, me, n, ta);
        let b = tb.map(|tb| DistCsr::from_local_triplets::<S>(dist, me, d, tb));
        let local_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let ac = ColBlocks::build::<S>(comm, &a);
        let col_s = t1.elapsed().as_secs_f64();
        comm.barrier("bench:setup");
        (Operands { a, ac, b }, local_s, col_s)
    });
    let total_s = start.elapsed().as_secs_f64();
    let mut ops = Vec::with_capacity(spec.p);
    let (mut local_csr_s, mut colblocks_s) = (0f64, 0f64);
    for (op, l, c) in out.results {
        ops.push(op);
        local_csr_s = local_csr_s.max(l);
        colblocks_s = colblocks_s.max(c);
    }
    SetupOut {
        ops,
        times: SetupTimes {
            total_s,
            partition_s,
            local_csr_s,
            colblocks_s,
        },
    }
}

/// One operation's outputs and measurements.
pub struct OpOut<T> {
    /// Result row block of each rank.
    pub blocks: Vec<Csr<T>>,
    /// Wall seconds between the two barriers, on rank 0.
    pub solve_s: f64,
    /// Largest per-rank CPU seconds between the barriers (the whole
    /// process's CPU when the pool runs more than one thread, so its
    /// workers are counted).
    pub cpu_s: f64,
    /// Payload bytes of the solve's collectives, summed over ranks.
    pub bytes: u64,
    /// Allocator calls between the barriers (zero unless counting is on).
    pub allocs: u64,
    pub profiles: Vec<RankProfile>,
}

/// Runs one operation; `None` if any rank panicked.
pub fn run_op<T: Copy + Send + Sync>(
    spec: &Spec,
    ops: &[Operands<T>],
    solve: &Solve<'_, T>,
    tag: &str,
    trace: bool,
) -> Option<OpOut<T>> {
    let pooled = spec.t > 1;
    let rank_fn = |comm: &mut Comm| {
        let op = &ops[comm.rank()];
        comm.barrier("bench:ready");
        let (t0, a0) = (Instant::now(), alloc::alloc_count());
        let c0 = if pooled {
            process_cpu_s()
        } else {
            thread_cpu_s()
        };
        let c = solve(comm, op);
        let cpu = if pooled {
            process_cpu_s()
        } else {
            thread_cpu_s()
        } - c0;
        comm.barrier("bench:done");
        (
            c,
            t0.elapsed().as_secs_f64(),
            cpu,
            alloc::alloc_count() - a0,
        )
    };
    let run = catch_unwind(AssertUnwindSafe(|| {
        if trace {
            tsgemm::pool::set_threads(spec.t);
            World::run_traced(spec.p, TraceConfig::enabled(), rank_fn)
        } else {
            World::run_with_threads(spec.p, spec.t, rank_fn)
        }
    }))
    .ok()?;
    let bytes = bytes_sent_tagged(&run.profiles, tag);
    let mut out = OpOut {
        blocks: Vec::with_capacity(spec.p),
        solve_s: run.results[0].1,
        cpu_s: 0.0,
        bytes,
        allocs: run.results[0].3,
        profiles: run.profiles,
    };
    for (c, _, cpu, _) in run.results {
        out.blocks.push(c);
        out.cpu_s = out.cpu_s.max(cpu);
    }
    Some(out)
}

/// CPU seconds of the calling thread (`/proc/thread-self/schedstat`, ns).
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |ns| ns / 1e9)
}

/// CPU seconds of the whole process, all threads, live or ended
/// (`utime + stime` of `/proc/self/stat`, in 1/100 s ticks).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (tick(), tick()) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// A workload ready to run: its replicated inputs, its operation and the
/// oracle every result is checked against.
pub struct Problem<'a, S: Semiring> {
    pub spec: &'static Spec,
    pub a: &'a Coo<S::T>,
    pub b: Option<&'a Coo<S::T>>,
    pub oracle: &'a Csr<S::T>,
    /// Tag prefix of the solve's collectives (`ts` or `bfs`).
    pub tag: &'static str,
    pub solve: &'a Solve<'a, S::T>,
    pub eq: fn(S::T, S::T) -> bool,
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;
/// Timed samples per run at the least, however long they take.
pub const MIN_SAMPLES: usize = 3;

/// Everything one run measured for the end-to-end metrics (and that the
/// per-layer pass reads back).
pub struct Measured<T> {
    pub setups: Vec<SetupTimes>,
    /// Mean operation seconds of each batch of `spec.batch` untraced
    /// operations (empty in the traced pass).
    pub batch_means: Vec<f64>,
    pub untraced: Vec<OpOut<T>>,
    pub traced: Vec<OpOut<T>>,
    pub peak_mem_bytes: u64,
    /// Allocator calls during the solve of the memory pass.
    pub solve_allocs: u64,
}

impl<S: Semiring> Problem<'_, S> {
    fn setup(&self) -> SetupOut<S::T> {
        setup::<S>(self.spec, self.a, self.b)
    }

    /// Runs and checks one operation; the result blocks are dropped once
    /// checked.
    fn op(&self, ops: &[Operands<S::T>], trace: bool, tally: &mut Tally) -> Option<OpOut<S::T>> {
        let mut out = run_op(self.spec, ops, self.solve, self.tag, trace);
        tally.record(out.as_ref().map(|o| {
            let ok = blocks_match(&o.blocks, self.oracle, self.spec.dist(), self.eq);
            (ok, o.bytes)
        }));
        if let Some(o) = out.as_mut() {
            o.blocks = Vec::new();
        }
        out
    }

    /// Runs the memory pass (which is also the untimed warm-up), sets up
    /// `SETUP_REPS` times, then runs timed batches of `spec.batch` operations
    /// for `seconds`. With `trace` it alternates single untraced and traced
    /// operations for half of `seconds` instead, leaving the rest of the
    /// run's time to the layer probes.
    pub fn measure(&self, seconds: f64, trace: bool, tally: &mut Tally) -> Measured<S::T> {
        let (peak_mem_bytes, solve_allocs) = self.memory_pass(tally);
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut ops = Vec::new();
        for _ in 0..SETUP_REPS {
            drop(std::mem::take(&mut ops));
            let s = self.setup();
            ops = s.ops;
            setups.push(s.times);
        }

        let (mut untraced, mut traced, mut batch_means) = (Vec::new(), Vec::new(), Vec::new());
        let budget = if trace { seconds / 2.0 } else { seconds };
        let start = Instant::now();
        let mut samples = 0;
        while samples < MIN_SAMPLES || start.elapsed().as_secs_f64() < budget {
            samples += 1;
            if trace {
                untraced.extend(self.op(&ops, false, tally));
                traced.extend(self.op(&ops, true, tally));
                continue;
            }
            let k = self.spec.batch;
            let batch: Vec<_> = (0..k).filter_map(|_| self.op(&ops, false, tally)).collect();
            if batch.len() == k {
                batch_means.push(batch.iter().map(|o| o.solve_s).sum::<f64>() / k as f64);
            }
            untraced.extend(batch);
        }
        Measured {
            setups,
            batch_means,
            untraced,
            traced,
            peak_mem_bytes,
            solve_allocs,
        }
    }

    /// Peak live heap bytes across one set-up and one operation, counted by
    /// the benchmark's `CountingAlloc` (switched on for this pass only).
    fn memory_pass(&self, tally: &mut Tally) -> (u64, u64) {
        alloc::reset();
        alloc::set_enabled(true);
        let s = self.setup();
        let out = self.op(&s.ops, false, tally);
        let peak = alloc::peak_bytes();
        alloc::set_enabled(false);
        drop(s);
        (peak, out.map_or(0, |o| o.allocs))
    }
}
