//! Per-rank execution profiles: compute segments and collective records.
//!
//! Ranks execute bulk-synchronously: stretches of local compute separated by
//! collectives. Each rank logs that alternation as a sequence of
//! [`Segment`]s. Because all group members invoke collectives in lock-step,
//! the k-th segment of every rank describes the same global step, which is
//! what lets [`crate::cost`] assemble a modeled global timeline.

use std::sync::Arc;

/// Which collective a record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollKind {
    AllToAllV,
    AllGatherV,
    Bcast,
    AllReduce,
    GatherV,
    Barrier,
    Split,
}

/// Static description of a communicator group (world ranks of its members).
#[derive(Debug)]
pub struct GroupInfo {
    /// `group rank -> world rank`.
    pub world_ranks: Vec<usize>,
}

/// One collective as observed by one rank.
#[derive(Clone, Debug)]
pub struct CollectiveRecord {
    pub kind: CollKind,
    /// Phase label chosen by the caller (e.g. `"ts:bfetch"`), used to
    /// attribute communication volume to algorithm phases.
    pub tag: String,
    /// The group the collective ran on.
    pub group: Arc<GroupInfo>,
    /// Payload bytes this rank sent to each *world* rank (excluding itself).
    pub bytes_to: Vec<(usize, u64)>,
    /// Payload bytes this rank received (excluding its own contribution).
    pub bytes_received: u64,
    /// Number of peers this rank received a non-empty payload from
    /// (AllToAllv only; the latency term of a sparse point-to-point
    /// exchange scales with actual messages, not with `p`).
    pub recv_msgs: u32,
    /// Per-message payload for rooted/uniform collectives (bcast/allreduce):
    /// the size of the broadcast value. Zero for alltoallv.
    pub uniform_bytes: u64,
    /// Wall-clock seconds this rank spent inside the collective (includes
    /// waiting for peers; meaningful only relative to other measured times).
    pub wait_secs: f64,
    /// Modeled straggler delay injected by an active fault plan (zero in
    /// fault-free runs); priced by [`crate::CostModel::collective_cost`].
    pub injected_delay_secs: f64,
    /// Seconds since the rank's log epoch at which the rank entered the
    /// collective. Gives every record an absolute position on the rank's
    /// timeline, which is what the Chrome-trace export plots.
    pub entered_secs: f64,
}

impl CollectiveRecord {
    /// Total payload bytes this rank sent to other ranks.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_to.iter().map(|&(_, b)| b).sum()
    }
}

/// One bulk-synchronous step of one rank: the compute preceding a
/// collective, then the collective itself (`None` for the trailing segment
/// after the last collective).
#[derive(Clone, Debug)]
pub struct Segment {
    /// Useful work reported by kernels via [`crate::Comm::add_flops`].
    pub flops: u64,
    /// Largest compute working set noted in this segment (bytes) via
    /// [`crate::Comm::note_working_set`]; the cost model slows flops down
    /// when it exceeds the modeled cache (the §III-A locality effect).
    pub ws_bytes: u64,
    /// Measured wall-clock compute seconds in this segment.
    pub compute_secs: f64,
    pub coll: Option<CollectiveRecord>,
}

/// A named compute interval recorded by an algorithm (tile-loop phases like
/// `"ts:kernel"`), positioned on the rank's timeline by seconds since its
/// log epoch. Spans are pure annotation: byte accounting and the cost
/// model ignore them; the Chrome-trace export plots them as slices.
#[derive(Clone, Debug)]
pub struct PhaseSpan {
    /// Phase tag (same namespace as collective tags).
    pub tag: String,
    /// Seconds since the rank's log epoch at which the span started.
    pub start_secs: f64,
    /// Seconds since the rank's log epoch at which the span ended.
    pub end_secs: f64,
}

/// One rank's run as bulk-synchronous segments plus traced spans, folded
/// from the rank's event log after the rank returns.
#[derive(Debug)]
pub struct RankProfile {
    pub world_rank: usize,
    pub segments: Vec<Segment>,
    /// Algorithm-recorded phase spans (empty unless tracing is enabled).
    pub spans: Vec<PhaseSpan>,
}

impl RankProfile {
    /// Total payload bytes this rank sent across all collectives.
    pub fn total_bytes_sent(&self) -> u64 {
        self.segments
            .iter()
            .filter_map(|s| s.coll.as_ref())
            .map(|c| c.bytes_sent())
            .sum()
    }

    /// Total payload bytes sent in collectives whose tag starts with `prefix`.
    pub fn bytes_sent_tagged(&self, prefix: &str) -> u64 {
        self.segments
            .iter()
            .filter_map(|s| s.coll.as_ref())
            .filter(|c| c.tag.starts_with(prefix))
            .map(|c| c.bytes_sent())
            .sum()
    }

    /// Total flops this rank performed.
    pub fn total_flops(&self) -> u64 {
        self.segments.iter().map(|s| s.flops).sum()
    }

    /// Total measured compute seconds (excludes time inside collectives).
    pub fn total_compute_secs(&self) -> f64 {
        self.segments.iter().map(|s| s.compute_secs).sum()
    }
}

/// Aggregates across a whole run (all ranks).
pub fn total_bytes_sent(profiles: &[RankProfile]) -> u64 {
    profiles.iter().map(|p| p.total_bytes_sent()).sum()
}

/// Aggregate bytes for collectives whose tag starts with `prefix`.
pub fn bytes_sent_tagged(profiles: &[RankProfile], prefix: &str) -> u64 {
    profiles.iter().map(|p| p.bytes_sent_tagged(prefix)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(tag: &str, bytes: &[(usize, u64)]) -> Segment {
        Segment {
            flops: 0,
            ws_bytes: 0,
            compute_secs: 0.0,
            coll: Some(CollectiveRecord {
                kind: CollKind::AllToAllV,
                tag: tag.to_string(),
                group: Arc::new(GroupInfo {
                    world_ranks: vec![0, 1],
                }),
                bytes_to: bytes.to_vec(),
                bytes_received: 0,
                recv_msgs: 0,
                uniform_bytes: 0,
                wait_secs: 0.0,
                injected_delay_secs: 0.0,
                entered_secs: 0.0,
            }),
        }
    }

    #[test]
    fn byte_accounting_by_tag() {
        let p = RankProfile {
            world_rank: 0,
            segments: vec![
                segment("phase:b", &[(1, 10), (2, 5)]),
                segment("phase:c", &[(1, 7)]),
            ],
            spans: Vec::new(),
        };
        assert_eq!(p.total_bytes_sent(), 22);
        assert_eq!(p.bytes_sent_tagged("phase:b"), 15);
        assert_eq!(p.bytes_sent_tagged("phase:c"), 7);
        assert_eq!(p.bytes_sent_tagged("phase:"), 22);
        assert_eq!(p.bytes_sent_tagged("other"), 0);
    }
}
