//! The flight recorder is the black box: when a fault takes a run down, the
//! failed collective's seq/tag must be recoverable from (a) the crashed
//! rank's flight ring and its rendered tail in the hang report, and (b) the
//! `flight.jsonl` artifact — and the trace artifacts written from the
//! partial run must still be well-formed (parsed here with
//! `tsgemm-inspect`'s strict JSON parser).

use tsgemm::core::{ts_spgemm, BlockDist, ColBlocks, DistCsr, TsConfig};
use tsgemm::net::fault::{Fault, FaultKind, Trigger};
use tsgemm::net::{
    write_flight_jsonl, write_trace_files, FaultPlan, FlightEventKind, TraceConfig, World,
};
use tsgemm::sparse::gen::{erdos_renyi, random_tall};
use tsgemm::sparse::PlusTimesF64;

#[test]
fn crash_leaves_failed_collective_in_flight_ring_and_artifacts_stay_valid() {
    let n = 96;
    let d = 16;
    let p = 4;
    let victim = 2usize;
    let acoo = erdos_renyi(n, 6.0, 0xFA1);
    let bcoo = random_tall(n, d, 0.5, 0xFA2);

    let mut plan = FaultPlan::none();
    plan.push(Fault {
        rank: victim,
        trigger: Trigger::TagPrefix {
            prefix: "ts:bfetch".into(),
            occurrence: 1,
        },
        kind: FaultKind::Crash,
    });

    let out = World::try_run_traced(p, &plan, TraceConfig::enabled(), |comm| {
        let dist = BlockDist::new(n, p);
        let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
        let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
        let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
        ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &TsConfig::default()).1
    });
    assert!(!out.all_ok(), "the crash must take the run down");

    // The crashed rank's failure is attributed to the bfetch collective...
    let fail = out.results[victim].as_ref().unwrap_err();
    assert_eq!(fail.tag(), Some("ts:bfetch"), "{}", fail.cause);
    let seq = fail.parked.as_ref().expect("attributed position").seq;

    // ...and its flight ring ends with exactly that collective being posted
    // (CollPosted is recorded before the fault can fire).
    let last = out.flights[victim]
        .in_order()
        .last()
        .expect("crashed rank recorded events");
    assert_eq!(last.tag.as_str(), "ts:bfetch");
    match last.kind {
        FlightEventKind::CollPosted { seq: s, .. } => {
            assert_eq!(s, seq, "ring tail names the failed collective's seq")
        }
        other => panic!("ring must end on the posted collective, got {other:?}"),
    }

    // The hang report carries the same diagnosis: the victim's flight tail,
    // and every survivor parked on the same seq/tag.
    let report = out.hang_report.as_ref().expect("failed run must report");
    let entry = report.entry(victim).expect("victim entry");
    assert!(entry.failure.is_some());
    assert!(
        entry.flight_tail.iter().any(|l| l.contains("ts:bfetch")),
        "flight tail must show the failed phase: {:?}",
        entry.flight_tail
    );
    for r in (0..p).filter(|&r| r != victim) {
        let parked = report
            .entry(r)
            .and_then(|e| e.parked.as_ref())
            .expect("survivor parked position");
        assert_eq!(parked.tag, "ts:bfetch", "rank {r}");
        assert_eq!(parked.seq, seq, "rank {r} parked on the failed collective");
    }
    assert!(report.to_string().contains("ts:bfetch"));

    // Artifacts from the partial run: flight.jsonl carries the failed
    // seq/tag, and trace.json still parses as strict JSON.
    let dir = std::env::temp_dir().join(format!(
        "tsgemm-crash_leaves_failed_collective_in_flight_ring-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (trace_path, metrics_path) = write_trace_files(&dir, &out.profiles, &out.metrics).unwrap();
    let flight_path = write_flight_jsonl(&dir, &out.flights).unwrap();

    let flight = std::fs::read_to_string(&flight_path).unwrap();
    let needle = format!("\"seq\":{seq}");
    assert!(
        flight
            .lines()
            .any(|l| l.contains(&format!("\"rank\":{victim},"))
                && l.contains(&needle)
                && l.contains("ts:bfetch")
                && l.contains("\"coll_posted\"")),
        "flight.jsonl must record the victim posting the failed collective"
    );

    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let parsed = tsgemm_inspect::parse(&trace).expect("trace.json from a crashed run must parse");
    assert!(parsed.get("traceEvents").is_some());
    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    for line in metrics.lines() {
        tsgemm_inspect::parse(line).expect("each metrics.jsonl line must parse");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
