//! End-to-end fault-injection acceptance tests.
//!
//! Exercises the fault-tolerance layer through the whole stack: typed
//! collective errors and hang diagnosis in `tsgemm-net`, transparent retry
//! of transient tile-step failures in `tsgemm-core`, and checkpoint/restart
//! of the iterative applications in `tsgemm-apps`.

use proptest::prelude::*;
use proptest::test_runner::Config;
use std::path::PathBuf;
use tsgemm::apps::checkpoint::Checkpointer;
use tsgemm::apps::embed::{sparse_embed, EmbedConfig};
use tsgemm::apps::mcl::{mcl, MclConfig};
use tsgemm::core::colpart::ColBlocks;
use tsgemm::core::dist::DistCsr;
use tsgemm::core::exec::{ts_spgemm, TsConfig};
use tsgemm::core::part::BlockDist;
use tsgemm::net::fault::{Fault, FaultKind, Trigger};
use tsgemm::net::{CostModel, FaultPlan, RankProfile, World};
use tsgemm::sparse::gen::{erdos_renyi, random_tall, sbm, symmetrize};
use tsgemm::sparse::spgemm::{spgemm, AccumChoice};
use tsgemm::sparse::{Csr, PlusTimesF64};

fn temp_dir(label: &str) -> PathBuf {
    // pid + a process-wide counter: tests run on parallel threads of one
    // process, so the pid alone does not keep their directories apart.
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tsgemm-fi-{label}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// (a) rank crash: attributed failure + hang report
// ---------------------------------------------------------------------------

#[test]
fn crash_at_collective_k_names_rank_index_tag_and_parks_survivors() {
    let plan = FaultPlan::none().crash_at_op(2, 2);
    let out = World::try_run(4, &plan, |comm| {
        for i in 0..5 {
            comm.allreduce(1u64, |a, b| a + b, format!("phase{i}"));
        }
        comm.rank()
    });

    // The crashed rank's failure names the rank, collective index, and tag.
    let fail = out.results[2].as_ref().unwrap_err();
    assert_eq!(fail.world_rank, 2);
    assert_eq!(fail.op_index(), Some(2));
    assert_eq!(fail.tag(), Some("phase2"));
    assert!(fail.cause.contains("injected rank crash"), "{}", fail.cause);

    // Survivors fail with a typed PeerExited instead of hanging, and their
    // errors attribute the dead peer.
    for r in [0usize, 1, 3] {
        let f = out.results[r].as_ref().unwrap_err();
        assert!(f.cause.contains("peer exited"), "rank {r}: {}", f.cause);
        assert!(f.cause.contains("world rank 2"), "rank {r}: {}", f.cause);
    }

    // The hang report states which collective seq/tag every surviving rank
    // was parked on.
    let report = out.hang_report.as_ref().expect("failed run must report");
    for r in [0usize, 1, 3] {
        let entry = report.entry(r).unwrap();
        let parked = entry.parked.as_ref().expect("survivor must be parked");
        assert_eq!(parked.seq, 2, "rank {r} parked on the crashed collective");
        assert_eq!(parked.tag, "phase2");
    }
    let rendered = report.to_string();
    assert!(rendered.contains("phase2"), "{rendered}");
}

// ---------------------------------------------------------------------------
// (b) transient tile-step failure: retried, result matches the oracle
// ---------------------------------------------------------------------------

#[test]
fn transient_tile_fault_is_retried_and_matches_sequential_oracle() {
    let n = 48;
    let d = 6;
    let p = 4;
    let acoo = erdos_renyi(n, 5.0, 401);
    let bcoo = random_tall(n, d, 0.5, 402);
    let oracle = spgemm::<PlusTimesF64>(
        &acoo.to_csr::<PlusTimesF64>(),
        &bcoo.to_csr::<PlusTimesF64>(),
        AccumChoice::Auto,
    );

    let run = |plan: &FaultPlan| {
        let acoo = &acoo;
        let bcoo = &bcoo;
        World::try_run(p, plan, move |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
            let b = DistCsr::from_global_coo::<PlusTimesF64>(bcoo, dist, comm.rank(), d);
            let cfg = TsConfig {
                tile_height: Some(6),
                tile_width: Some(12),
                ..TsConfig::default()
            };
            let (c_local, stats) = ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &cfg);
            let c = DistCsr {
                dist,
                rank: comm.rank(),
                local: c_local,
            }
            .gather_global::<PlusTimesF64>(comm);
            (c, stats.retries)
        })
    };

    // One transient fault on each of the two tile-step collectives.
    let plan = FaultPlan::none()
        .transient_at_tag(1, "ts:bfetch", 2)
        .transient_at_tag(2, "ts:cret", 1);
    let faulty = run(&plan);
    assert!(
        faulty.all_ok(),
        "transient faults must be absorbed by retry"
    );
    let clean = run(&FaultPlan::none());

    let mut total_retries = 0u64;
    for (rank, res) in faulty.results.iter().enumerate() {
        let (c, retries) = res.as_ref().unwrap();
        assert!(
            c.approx_eq(&oracle, 1e-9),
            "rank {rank}: retried result differs from sequential oracle"
        );
        // Bitwise identical to the fault-free distributed run, not merely
        // close: a retry repeats the identical exchange.
        let (c_clean, _) = clean.results[rank].as_ref().unwrap();
        assert_eq!(c, c_clean);
        total_retries += retries;
    }
    assert_eq!(total_retries, 2, "each injected transient costs one retry");
    let clean_retries: u64 = clean.results.iter().map(|r| r.as_ref().unwrap().1).sum();
    assert_eq!(clean_retries, 0);
}

// ---------------------------------------------------------------------------
// Wire-integrity faults: truncation and corruption are detected and named
// ---------------------------------------------------------------------------

#[test]
fn truncated_payload_is_detected_and_attributed() {
    let plan = FaultPlan::none().truncate_at_op(0, 0, 0.5);
    let out = World::try_run(3, &plan, |comm| {
        let sends: Vec<Vec<u64>> = (0..3).map(|_| vec![1, 2, 3, 4]).collect();
        comm.alltoallv(sends, "xfer");
    });
    // The tampering rank itself completes; receivers detect the shortfall.
    assert!(out.results[0].is_ok());
    for r in [1usize, 2] {
        let f = out.results[r].as_ref().unwrap_err();
        assert!(f.cause.contains("truncated payload"), "{}", f.cause);
        assert!(f.cause.contains("from rank 0"), "{}", f.cause);
        assert!(f.cause.contains("xfer"), "{}", f.cause);
        assert!(
            f.cause.contains("2 of 4"),
            "half of 4 elements: {}",
            f.cause
        );
    }
    assert!(out.hang_report.is_some());
}

#[test]
fn corrupt_payload_fails_typed_downcast_with_attribution() {
    let plan = FaultPlan::none().corrupt_at_op(1, 0);
    let out = World::try_run(3, &plan, |comm| {
        let sends: Vec<Vec<u64>> = (0..3).map(|_| vec![7, 8]).collect();
        comm.alltoallv(sends, "xfer");
    });
    assert!(out.results[1].is_ok());
    for r in [0usize, 2] {
        let f = out.results[r].as_ref().unwrap_err();
        assert!(f.cause.contains("payload type mismatch"), "{}", f.cause);
        assert!(f.cause.contains("from rank 1"), "{}", f.cause);
        assert!(f.cause.contains("xfer"), "{}", f.cause);
    }
}

// ---------------------------------------------------------------------------
// Straggler delay feeds the α–β cost model
// ---------------------------------------------------------------------------

#[test]
fn straggler_delay_is_priced_by_the_cost_model() {
    let delay = 0.25f64;
    let work = |plan: &FaultPlan| {
        World::try_run(2, plan, |comm| comm.allreduce(1u64, |a, b| a + b, "work"))
    };
    let slow = work(&FaultPlan::none().delay_at_tag(0, "work", 1, delay));
    let fast = work(&FaultPlan::none());
    assert!(slow.all_ok() && fast.all_ok());

    let rec_of = |profiles: &[RankProfile], rank: usize| {
        profiles[rank]
            .segments
            .iter()
            .find_map(|s| s.coll.clone())
            .unwrap()
    };
    assert_eq!(rec_of(&slow.profiles, 0).injected_delay_secs, delay);
    assert_eq!(rec_of(&slow.profiles, 1).injected_delay_secs, 0.0);

    let cm = CostModel::default();
    let t_slow = cm.model_run(&slow.profiles).comm_secs;
    let t_fast = cm.model_run(&fast.profiles).comm_secs;
    assert!(
        (t_slow - t_fast - delay).abs() < 1e-12,
        "modeled comm must grow by exactly the injected delay: {t_slow} vs {t_fast}"
    );
}

// ---------------------------------------------------------------------------
// (c) checkpoint/restart: killed run resumes bit-identically
// ---------------------------------------------------------------------------

fn assert_csr_bit_identical(a: &Csr<f64>, b: &Csr<f64>, what: &str) {
    assert_eq!(a.indptr(), b.indptr(), "{what}: indptr");
    assert_eq!(a.indices(), b.indices(), "{what}: indices");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a.values()), bits(b.values()), "{what}: value bits");
}

#[test]
fn embed_killed_at_epoch_boundary_restarts_bit_identically() {
    let n = 48;
    let p = 3;
    let g = symmetrize(&erdos_renyi(n, 4.0, 411));
    let ck = Checkpointer::new(temp_dir("embed"), "z");
    let base = EmbedConfig {
        d: 8,
        target_sparsity: 0.6,
        epochs: 4,
        neg_samples: 2,
        ..EmbedConfig::default()
    };

    let run = |cfg: EmbedConfig, plan: &FaultPlan| {
        let g = &g;
        World::try_run(p, plan, move |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(g, dist, comm.rank(), n);
            sparse_embed(comm, &a, &cfg).0
        })
    };

    // Reference: uninterrupted, no checkpointing at all.
    let reference = run(base.clone(), &FaultPlan::none());
    assert!(reference.all_ok());

    // Kill rank 1 at its first collective of epoch 2; epochs 0 and 1 have
    // been checkpointed by every rank.
    let with_ck = EmbedConfig {
        checkpoint: Some(ck.clone()),
        ..base.clone()
    };
    let mut kill = FaultPlan::none();
    kill.push(Fault {
        rank: 1,
        trigger: Trigger::TagPrefix {
            prefix: "embed:e2".into(),
            occurrence: 1,
        },
        kind: FaultKind::Crash,
    });
    let killed = run(with_ck.clone(), &kill);
    assert!(!killed.all_ok(), "the kill must actually take the run down");
    assert!(killed.hang_report.is_some());

    // Restart: resumes from the last epoch all ranks completed and finishes
    // bit-identical to the uninterrupted reference.
    let resumed = run(with_ck, &FaultPlan::none());
    assert!(resumed.all_ok());
    for rank in 0..p {
        assert_csr_bit_identical(
            resumed.results[rank].as_ref().unwrap(),
            reference.results[rank].as_ref().unwrap(),
            &format!("embed Z block of rank {rank}"),
        );
    }
    ck.clear().unwrap();
}

#[test]
fn mcl_killed_mid_run_restarts_to_identical_labels() {
    let n = 48;
    let p = 4;
    // A noisy 3-community SBM needs several expansion iterations, so the
    // iteration-1 kill below actually fires (clean cliques converge in one).
    let (coo, _) = sbm(n, 3, 10.0, 0.4, 421);
    let coo = symmetrize(&coo);
    let ck = Checkpointer::new(temp_dir("mcl"), "m");
    let run = |cfg: MclConfig, plan: &FaultPlan| {
        let coo = &coo;
        World::try_run(p, plan, move |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(coo, dist, comm.rank(), n);
            mcl(comm, &a, &cfg)
        })
    };

    let reference = run(MclConfig::default(), &FaultPlan::none());
    assert!(reference.all_ok());

    // Kill rank 0 in expansion iteration 1 (iteration 0 is checkpointed).
    let with_ck = MclConfig {
        checkpoint: Some(ck.clone()),
        ..MclConfig::default()
    };
    let mut kill = FaultPlan::none();
    kill.push(Fault {
        rank: 0,
        trigger: Trigger::TagPrefix {
            prefix: "mcl:i1".into(),
            occurrence: 1,
        },
        kind: FaultKind::Crash,
    });
    let killed = run(with_ck.clone(), &kill);
    assert!(!killed.all_ok());

    let resumed = run(with_ck, &FaultPlan::none());
    assert!(resumed.all_ok());
    for rank in 0..p {
        let (labels, _) = resumed.results[rank].as_ref().unwrap();
        let (expect, _) = reference.results[rank].as_ref().unwrap();
        assert_eq!(labels, expect, "rank {rank} labels after restart");
    }
    ck.clear().unwrap();
}

// ---------------------------------------------------------------------------
// Satellite: zero-fault plans are pay-for-what-you-use — byte-identical
// results, stats, and modeled time vs the uninstrumented runtime.
// ---------------------------------------------------------------------------

fn assert_profiles_identical(a: &[RankProfile], b: &[RankProfile]) {
    assert_eq!(a.len(), b.len());
    for (pa, pb) in a.iter().zip(b) {
        assert_eq!(pa.segments.len(), pb.segments.len(), "segment counts");
        for (sa, sb) in pa.segments.iter().zip(&pb.segments) {
            assert_eq!(sa.flops, sb.flops);
            assert_eq!(sa.ws_bytes, sb.ws_bytes);
            match (&sa.coll, &sb.coll) {
                (None, None) => {}
                (Some(ca), Some(cb)) => {
                    assert_eq!(ca.kind, cb.kind);
                    assert_eq!(ca.tag, cb.tag);
                    assert_eq!(ca.bytes_to, cb.bytes_to);
                    assert_eq!(ca.bytes_received, cb.bytes_received);
                    assert_eq!(ca.recv_msgs, cb.recv_msgs);
                    assert_eq!(ca.uniform_bytes, cb.uniform_bytes);
                    assert_eq!(ca.injected_delay_secs, 0.0);
                    assert_eq!(cb.injected_delay_secs, 0.0);
                }
                _ => panic!("collective present in one run but not the other"),
            }
        }
    }
}

proptest! {
    #![proptest_config(Config::with_cases(5))]
    #[test]
    fn zero_fault_plan_output_is_byte_identical(seed in 0u64..1000) {
        let n = 36;
        let d = 6;
        let p = 3;
        let acoo = erdos_renyi(n, 4.0, seed);
        let bcoo = random_tall(n, d, 0.5, seed ^ 0x5DEECE66D);
        let body = |comm: &mut tsgemm::net::Comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
            let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
            let (c, stats) = ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &TsConfig::default());
            comm.barrier("wrap");
            (c, stats)
        };

        let plain = World::run(p, body);
        let instrumented = World::try_run(p, &FaultPlan::none(), body);

        prop_assert!(instrumented.all_ok());
        prop_assert!(instrumented.hang_report.is_none());
        for (rank, res) in instrumented.results.iter().enumerate() {
            let (c, stats) = res.as_ref().unwrap();
            let (c_plain, stats_plain) = &plain.results[rank];
            prop_assert_eq!(c, c_plain);
            prop_assert_eq!(stats, stats_plain);
        }
        assert_profiles_identical(&plain.profiles, &instrumented.profiles);

        // Deterministic stat fields match, so modeled time matches exactly.
        let cm = CostModel::default();
        prop_assert_eq!(cm.model_run(&plain.profiles), cm.model_run(&instrumented.profiles));
    }
}
