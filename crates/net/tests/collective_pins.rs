//! Pins the observable contract of every collective at p=3, root=1, with an
//! empty payload on rank 2: each rank's `CollectiveRecord` fields, the
//! flight ring's posted/done pair, and the per-rank outcome when one rank's
//! payloads are truncated or corrupted.

use tsgemm_net::{CollKind, Comm, CommError, FaultPlan, FlightEventKind, RankProfile, World};

const P: usize = 3;
const ROOT: usize = 1;

/// The collectives in the order the accounting script runs them.
#[derive(Clone, Copy, Debug)]
enum Coll {
    AllToAllV,
    AllGatherV,
    Bcast,
    BcastVec,
    AllReduce,
    GatherV,
    Barrier,
}

const ALL: [Coll; 7] = [
    Coll::AllToAllV,
    Coll::AllGatherV,
    Coll::Bcast,
    Coll::BcastVec,
    Coll::AllReduce,
    Coll::GatherV,
    Coll::Barrier,
];

impl Coll {
    fn kind(self) -> CollKind {
        match self {
            Coll::AllToAllV => CollKind::AllToAllV,
            Coll::AllGatherV => CollKind::AllGatherV,
            Coll::Bcast | Coll::BcastVec => CollKind::Bcast,
            Coll::AllReduce => CollKind::AllReduce,
            Coll::GatherV => CollKind::GatherV,
            Coll::Barrier => CollKind::Barrier,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Coll::AllToAllV => "pin:a2a",
            Coll::AllGatherV => "pin:allgather",
            Coll::Bcast => "pin:bcast",
            Coll::BcastVec => "pin:bcastvec",
            Coll::AllReduce => "pin:allreduce",
            Coll::GatherV => "pin:gather",
            Coll::Barrier => "pin:barrier",
        }
    }
}

/// Contribution length of rank `r` (rank 2 contributes nothing).
fn len_of(r: usize) -> usize {
    [2, 3, 0][r]
}

/// Runs one collective through its fallible form. Element types differ per
/// collective (u64, u32, u16) so a wrong `size_of` shows in the bytes.
fn run_one(comm: &mut Comm, c: Coll) -> Result<(), CommError> {
    let me = comm.rank();
    let tag = c.tag();
    match c {
        Coll::AllToAllV => {
            // Rank r sends (r+1)(d+1) u64 to rank d; rank 2 sends nothing.
            let sends: Vec<Vec<u64>> = (0..P)
                .map(|d| vec![d as u64; if me == 2 { 0 } else { (me + 1) * (d + 1) }])
                .collect();
            comm.try_alltoallv(sends, tag).map(drop)
        }
        Coll::AllGatherV => comm
            .try_allgatherv(vec![me as u32; len_of(me)], tag)
            .map(drop),
        Coll::Bcast => {
            let v = (me == ROOT).then_some(7u16);
            comm.try_bcast(ROOT, v, tag).map(drop)
        }
        Coll::BcastVec => {
            let data = if me == ROOT {
                vec![5u64; 3]
            } else {
                Vec::new()
            };
            comm.try_bcast_vec(ROOT, data, tag).map(drop)
        }
        Coll::AllReduce => comm
            .try_allreduce(me as u32 + 1, |a, b| a + b, tag)
            .map(drop),
        Coll::GatherV => comm
            .try_gatherv(vec![me as u16; len_of(me)], ROOT, tag)
            .map(drop),
        Coll::Barrier => comm.try_barrier(tag),
    }
}

/// `(bytes_to, bytes_received, recv_msgs, uniform_bytes)` rank `r` must
/// record for collective `c`.
fn expected(c: Coll, r: usize) -> (Vec<(usize, u64)>, u64, u32, u64) {
    match (c, r) {
        // u64: rank 0 sends [1, 2, 3] elements, rank 1 sends [2, 4, 6].
        (Coll::AllToAllV, 0) => (vec![(1, 16), (2, 24)], 16, 1, 0),
        (Coll::AllToAllV, 1) => (vec![(0, 16), (2, 48)], 16, 1, 0),
        (Coll::AllToAllV, _) => (vec![], 72, 2, 0),
        // u32: lengths [2, 3, 0].
        (Coll::AllGatherV, 0) => (vec![(1, 8), (2, 8)], 12, 0, 8),
        (Coll::AllGatherV, 1) => (vec![(0, 12), (2, 12)], 8, 0, 12),
        (Coll::AllGatherV, _) => (vec![], 20, 0, 0),
        // One u16 from the root.
        (Coll::Bcast, ROOT) => (vec![(0, 2), (2, 2)], 0, 0, 2),
        (Coll::Bcast, _) => (vec![], 2, 0, 2),
        // Three u64 from the root.
        (Coll::BcastVec, ROOT) => (vec![(0, 24), (2, 24)], 0, 0, 24),
        (Coll::BcastVec, _) => (vec![], 24, 0, 24),
        // One u32 to and from every peer.
        (Coll::AllReduce, 0) => (vec![(1, 4), (2, 4)], 8, 0, 4),
        (Coll::AllReduce, 1) => (vec![(0, 4), (2, 4)], 8, 0, 4),
        (Coll::AllReduce, _) => (vec![(0, 4), (1, 4)], 8, 0, 4),
        // u16: rank 0 sends 2 elements, rank 2 sends none.
        (Coll::GatherV, 0) => (vec![(1, 4)], 0, 0, 0),
        (Coll::GatherV, ROOT) => (vec![], 4, 0, 0),
        (Coll::GatherV, _) => (vec![], 0, 0, 0),
        (Coll::Barrier, _) => (vec![], 0, 0, 0),
    }
}

fn check_accounting(rank: usize, profile: &RankProfile, flight: &[FlightEventKind]) {
    let recs: Vec<_> = profile
        .segments
        .iter()
        .filter_map(|s| s.coll.as_ref())
        .collect();
    assert_eq!(
        recs.len(),
        ALL.len(),
        "rank {rank}: one record per collective"
    );
    let mut want_flight = Vec::new();
    for (seq, (&c, rec)) in ALL.iter().zip(&recs).enumerate() {
        let (bytes_to, received, msgs, uniform) = expected(c, rank);
        let at = format!("rank {rank}, {c:?}");
        assert_eq!(rec.kind, c.kind(), "{at}: kind");
        assert_eq!(rec.tag, c.tag(), "{at}: tag");
        assert_eq!(rec.bytes_to, bytes_to, "{at}: bytes_to");
        assert_eq!(rec.bytes_received, received, "{at}: bytes_received");
        assert_eq!(rec.recv_msgs, msgs, "{at}: recv_msgs");
        assert_eq!(rec.uniform_bytes, uniform, "{at}: uniform_bytes");
        assert_eq!(rec.injected_delay_secs, 0.0, "{at}: injected delay");
        let (seq, kind) = (seq as u64, c.kind());
        want_flight.push(FlightEventKind::CollPosted { seq, kind });
        want_flight.push(FlightEventKind::CollDone {
            seq,
            kind,
            sent: bytes_to.iter().map(|&(_, b)| b).sum(),
            recv: received,
        });
    }
    assert_eq!(flight, want_flight, "rank {rank}: flight ring");
}

fn coll_events(fl: &tsgemm_net::FlightRecorder) -> Vec<FlightEventKind> {
    fl.in_order()
        .map(|e| e.kind)
        .filter(|k| {
            matches!(
                k,
                FlightEventKind::CollPosted { .. } | FlightEventKind::CollDone { .. }
            )
        })
        .collect()
}

#[test]
fn every_collective_records_pinned_accounting() {
    let script = |comm: &mut Comm| {
        for c in ALL {
            run_one(comm, c).unwrap();
        }
    };
    // Fault-free: the plain path, std barrier.
    let out = World::run(P, script);
    for rank in 0..P {
        check_accounting(rank, &out.profiles[rank], &coll_events(&out.flights[rank]));
    }
    // An active plan that never fires: polling receives and the
    // message-based barrier must account exactly the same.
    let never = FaultPlan::none().delay_at_tag(0, "never", 1, 1.0);
    let out = World::try_run(P, &never, script);
    assert!(out.all_ok());
    for rank in 0..P {
        check_accounting(rank, &out.profiles[rank], &coll_events(&out.flights[rank]));
    }
}

#[derive(Clone, Copy, Debug)]
enum Tamper {
    Truncate,
    Corrupt,
}

/// What rank `r` sees when `by` tampers with its payloads of collective `c`
/// (the first and only collective of the run).
fn tamper_outcome(c: Coll, t: Tamper, by: usize, r: usize) -> Result<(), CommError> {
    let (kind, tag) = (c.kind(), c.tag().to_string());
    // The (declared, delivered) element counts a `keep = 0.5` truncation
    // gives a receiver of `by`'s payload, or `None` when tampering is a no-op.
    let hit: Option<(u64, u64)> = match (c, by) {
        // Scalar payloads cannot be truncated; the barrier ignores both.
        (Coll::Barrier, _) => None,
        (Coll::Bcast | Coll::AllReduce, _) if matches!(t, Tamper::Truncate) => None,
        // A non-root sends nothing in a broadcast; the root nothing in a gather.
        (Coll::Bcast | Coll::BcastVec, 0) | (Coll::GatherV, ROOT) => None,
        (Coll::Bcast | Coll::AllReduce, _) => Some((0, 0)),
        (Coll::AllToAllV, _) => {
            // Rank `by` sends (by+1)(r+1) elements to rank r.
            let n = ((by + 1) * (r + 1)) as u64;
            Some((n, n / 2))
        }
        (Coll::AllGatherV | Coll::GatherV, _) => {
            let n = len_of(by) as u64;
            Some((n, n / 2))
        }
        (Coll::BcastVec, _) => Some((3, 1)),
    };
    let receives = match c {
        Coll::GatherV => r == ROOT,
        Coll::Bcast | Coll::BcastVec => r != ROOT,
        _ => true,
    };
    match hit {
        Some((declared, got)) if receives && r != by => Err(match t {
            Tamper::Truncate => CommError::TruncatedPayload {
                rank: r,
                src: by,
                kind,
                tag,
                declared,
                got,
            },
            Tamper::Corrupt => CommError::PayloadTypeMismatch {
                rank: r,
                src: by,
                kind,
                tag,
            },
        }),
        _ => Ok(()),
    }
}

#[test]
fn tampered_payloads_fail_pinned_ranks() {
    for c in ALL {
        for t in [Tamper::Truncate, Tamper::Corrupt] {
            // The tampering rank is the root, then a non-root.
            for by in [ROOT, 0] {
                let plan = match t {
                    Tamper::Truncate => FaultPlan::none().truncate_at_op(by, 0, 0.5),
                    Tamper::Corrupt => FaultPlan::none().corrupt_at_op(by, 0),
                };
                let out = World::try_run(P, &plan, |comm| run_one(comm, c));
                for (r, res) in out.results.into_iter().enumerate() {
                    let got = res.unwrap_or_else(|f| panic!("rank {r} failed: {f}"));
                    assert_eq!(
                        got,
                        tamper_outcome(c, t, by, r),
                        "{c:?} {t:?} by rank {by}, at rank {r}"
                    );
                }
            }
        }
    }
}
