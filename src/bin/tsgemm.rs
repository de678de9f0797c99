//! `tsgemm` — command-line front end to the library.
//!
//! Runs the distributed algorithms on real matrices (MatrixMarket `.mtx` or
//! the fast `.bin` format) or on the built-in generators, over a simulated
//! cluster, printing exact communication volumes and modeled times.
//!
//! ```text
//! tsgemm generate  --kind web --scale 14 --deg 16 --out graph.bin
//! tsgemm convert   --in graph.mtx --out graph.bin
//! tsgemm multiply  --matrix graph.bin --d 128 --sparsity 0.8 -p 64 --algo ts --verify
//! tsgemm bfs       --matrix graph.bin --sources 128 -p 64
//! tsgemm triangles --matrix graph.bin -p 16
//! tsgemm mcl       --matrix graph.bin -p 16 --inflation 2.0
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use tsgemm::apps::mcl::{mcl, MclConfig};
use tsgemm::apps::motifs::triangle_count;
use tsgemm::apps::msbfs::{msbfs_ts, BfsConfig};
use tsgemm::core::{ts_spgemm, BlockDist, ColBlocks, DistCsr, TsConfig};
use tsgemm::net::{CostModel, World};
use tsgemm::sparse::gen;
use tsgemm::sparse::io;
use tsgemm::sparse::semiring::BoolAndOr;
use tsgemm::sparse::spgemm::{spgemm, AccumChoice};
use tsgemm::sparse::{Coo, Idx, PlusTimesF64};

const USAGE: &str = "tsgemm <command> [options]

commands:
  generate   --kind web|er|rmat --scale N [--deg D] --out FILE
  convert    --in FILE --out FILE            (.mtx <-> .bin by extension)
  multiply   --matrix FILE [--d N] [--sparsity S] [-p P]
             [--algo ts|petsc|summa2d|summa3d] [--layers L] [--verify]
             (summa2d: P a perfect square; summa3d: L divides P and
             P/L is a perfect square)
  bfs        --matrix FILE [--sources N] [-p P]
  triangles  --matrix FILE [-p P]
  mcl        --matrix FILE [-p P] [--inflation F]

matrices are read by extension: .mtx (MatrixMarket) or .bin (tsgemm binary).
";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .or_else(|| args[i].strip_prefix('-'))
            .ok_or_else(|| format!("expected a flag, got {:?}", args[i]))?;
        // Boolean flags (like --verify) take no value.
        match args.get(i + 1) {
            Some(v) if !v.starts_with('-') || v.parse::<f64>().is_ok() => {
                flags.insert(key.to_string(), v.clone());
                i += 2;
            }
            _ => {
                flags.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        }
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
    }
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing required flag --{key}"))
}

/// Reads `-p`, refusing a rank count the runtime cannot start.
fn ranks(flags: &HashMap<String, String>) -> Result<usize, String> {
    match get(flags, "p", 8usize)? {
        0 => Err("-p must be at least 1".into()),
        p => Ok(p),
    }
}

/// Reads `--sparsity`, the fraction of B's entries that are zero.
fn sparsity(flags: &HashMap<String, String>) -> Result<f64, String> {
    match get(flags, "sparsity", 0.8f64)? {
        s if (0.0..=1.0).contains(&s) => Ok(s),
        s => Err(format!("--sparsity must be in [0, 1], got {s}")),
    }
}

fn is_square(n: usize) -> bool {
    n.isqrt() * n.isqrt() == n
}

fn load(path: &str) -> Result<Coo<f64>, String> {
    let coo = if path.ends_with(".bin") {
        io::read_binary_file(path)
    } else {
        io::read_matrix_market_file(path)
    }
    .map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(coo)
}

fn save(path: &str, m: &Coo<f64>) -> Result<(), String> {
    if path.ends_with(".bin") {
        io::write_binary_file(path, m)
    } else {
        io::write_matrix_market_file(path, m)
    }
    .map_err(|e| format!("cannot write {path}: {e}"))
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let kind = required(flags, "kind")?;
    let scale: u32 = get(flags, "scale", 14u32)?;
    if scale >= Idx::BITS {
        return Err(format!(
            "--scale must be below {} so that n = 2^scale fits the index type, got {scale}",
            Idx::BITS
        ));
    }
    let deg: f64 = get(flags, "deg", 16.0f64)?;
    let seed: u64 = get(flags, "seed", 1u64)?;
    let out = required(flags, "out")?;
    let n = 1usize << scale;
    let m = match kind {
        "web" => gen::web_like(scale, deg, seed),
        "er" => gen::erdos_renyi(n, deg, seed),
        "rmat" => gen::rmat(scale, deg, gen::RMAT_WEB, seed),
        other => return Err(format!("unknown --kind {other} (web|er|rmat)")),
    };
    save(out, &m)?;
    println!("wrote {out}: {n}x{n}, {} nonzeros", m.nnz());
    Ok(())
}

fn cmd_convert(flags: &HashMap<String, String>) -> Result<(), String> {
    let input = required(flags, "in")?;
    let output = required(flags, "out")?;
    let m = load(input)?;
    save(output, &m)?;
    println!(
        "converted {input} -> {output} ({}x{}, {} nnz)",
        m.nrows(),
        m.ncols(),
        m.nnz()
    );
    Ok(())
}

fn report_run(profiles: &[tsgemm::net::RankProfile], tag: &str) {
    let cm = CostModel::default();
    let bytes: u64 = profiles.iter().map(|p| p.bytes_sent_tagged(tag)).sum();
    let t = cm.model_run(profiles);
    println!("multiply communication : {bytes} bytes");
    println!(
        "modeled time           : {:.3} ms compute + {:.3} ms comm",
        t.compute_secs * 1e3,
        t.comm_secs * 1e3
    );
}

fn cmd_multiply(flags: &HashMap<String, String>) -> Result<(), String> {
    let d: usize = get(flags, "d", 128usize)?;
    let sparsity = sparsity(flags)?;
    let p = ranks(flags)?;
    let acoo = load(required(flags, "matrix")?)?;
    let n = acoo.nrows();
    if acoo.ncols() != n {
        return Err("multiply needs a square matrix".into());
    }
    let algo = flags.get("algo").map(|s| s.as_str()).unwrap_or("ts");
    let verify = flags.contains_key("verify");
    let bcoo = gen::random_tall(n, d, sparsity, 7);
    println!(
        "A: {n}x{n} ({} nnz)   B: {n}x{d} ({} nnz, {:.0}% sparse)   p={p}  algo={algo}",
        acoo.nnz(),
        bcoo.nnz(),
        sparsity * 100.0
    );

    let (c_nnz, profiles) = match algo {
        "ts" | "petsc" => {
            let use_ts = algo == "ts";
            let out = World::run(p, |comm| {
                let dist = BlockDist::new(n, p);
                let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
                let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
                let c = if use_ts {
                    let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
                    ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &TsConfig::default()).0
                } else {
                    tsgemm::core::naive::naive_spgemm::<PlusTimesF64>(
                        comm,
                        &a,
                        &b,
                        AccumChoice::Auto,
                        "ts",
                    )
                    .0
                };
                let nnz = c.nnz() as u64;
                if verify {
                    let g = DistCsr {
                        dist,
                        rank: comm.rank(),
                        local: c,
                    }
                    .gather_global::<PlusTimesF64>(comm);
                    (nnz, Some(g))
                } else {
                    (nnz, None)
                }
            });
            if verify {
                let expected = spgemm::<PlusTimesF64>(
                    &acoo.to_csr::<PlusTimesF64>(),
                    &bcoo.to_csr::<PlusTimesF64>(),
                    AccumChoice::Auto,
                );
                let got = out.results[0].1.as_ref().unwrap();
                if !got.approx_eq(&expected, 1e-9) {
                    return Err("verification FAILED".into());
                }
                println!("verified against sequential multiply: OK");
            }
            (out.results.iter().map(|r| r.0).sum::<u64>(), out.profiles)
        }
        "summa2d" => {
            if !is_square(p) {
                return Err(format!("--algo summa2d needs a perfect-square -p, got {p}"));
            }
            let out = World::run(p, |comm| {
                tsgemm::baselines::summa2d::summa2d::<PlusTimesF64>(
                    comm,
                    &acoo,
                    &bcoo,
                    AccumChoice::Auto,
                    "ts",
                )
                .c_block
                .nnz() as u64
            });
            (out.results.iter().sum(), out.profiles)
        }
        "summa3d" => {
            let layers: usize = get(flags, "layers", if p >= 16 { 4 } else { 1 })?;
            if layers == 0 || !p.is_multiple_of(layers) || !is_square(p / layers) {
                return Err(format!(
                    "--algo summa3d needs --layers dividing -p with p/layers a \
                     perfect square, got p={p}, layers={layers}"
                ));
            }
            let out = World::run(p, |comm| {
                tsgemm::baselines::summa3d::summa3d::<PlusTimesF64>(
                    comm,
                    &acoo,
                    &bcoo,
                    layers,
                    AccumChoice::Auto,
                    "ts",
                )
                .c_block
                .nnz() as u64
            });
            (out.results.iter().sum(), out.profiles)
        }
        other => return Err(format!("unknown --algo {other}")),
    };
    println!("C nonzeros             : {c_nnz}");
    report_run(&profiles, "ts");
    Ok(())
}

fn cmd_bfs(flags: &HashMap<String, String>) -> Result<(), String> {
    let acoo = load(required(flags, "matrix")?)?.map_values(|_| true);
    let n = acoo.nrows();
    let d: usize = get(flags, "sources", 64usize)?;
    let p = ranks(flags)?;
    let (_, sources) = gen::init_frontier(n, d.min(n), 11);
    let out = World::run(p, |comm| {
        let dist = BlockDist::new(n, p);
        let a = DistCsr::from_global_coo::<BoolAndOr>(&acoo, dist, comm.rank(), n);
        let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
        let (s, stats) = msbfs_ts(comm, &a, &ac, &sources, &BfsConfig::default());
        (s.nnz() as u64, stats)
    });
    let visited: u64 = out.results.iter().map(|r| r.0).sum();
    let stats = &out.results[0].1;
    println!(
        "graph: {n} vertices, {} edges; {} sources; p={p}",
        acoo.nnz(),
        sources.len()
    );
    println!("iterations: {}", stats.len());
    for st in stats {
        println!(
            "  iter {:>3}: frontier {:>10}  discovered {:>10}",
            st.iter, st.frontier_nnz, st.discovered_nnz
        );
    }
    println!("total (vertex, source) pairs visited: {visited}");
    report_run(&out.profiles, "bfs");
    Ok(())
}

fn cmd_triangles(flags: &HashMap<String, String>) -> Result<(), String> {
    let raw = load(required(flags, "matrix")?)?;
    let n = raw.nrows();
    // Symmetrise, unit values, no self-loops.
    let sym = gen::symmetrize(&raw);
    let clean = Coo::from_entries(
        n,
        n,
        sym.entries()
            .iter()
            .filter(|&&(r, c, _)| r != c)
            .map(|&(r, c, _)| (r, c, 1.0))
            .collect::<Vec<(Idx, Idx, f64)>>(),
    );
    let p = ranks(flags)?;
    let out = World::run(p, |comm| {
        let dist = BlockDist::new(n, p);
        let a = DistCsr::from_global_coo::<PlusTimesF64>(&clean, dist, comm.rank(), n);
        let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
        triangle_count(comm, &a, &ac, "tri")
    });
    println!("triangles: {}", out.results[0]);
    report_run(&out.profiles, "tri");
    Ok(())
}

fn cmd_mcl(flags: &HashMap<String, String>) -> Result<(), String> {
    let raw = load(required(flags, "matrix")?)?;
    let n = raw.nrows();
    let sym = gen::symmetrize(&raw);
    let p = ranks(flags)?;
    let inflation: f64 = get(flags, "inflation", 2.0f64)?;
    let out = World::run(p, |comm| {
        let dist = BlockDist::new(n, p);
        let a = DistCsr::from_global_coo::<PlusTimesF64>(&sym, dist, comm.rank(), n);
        let cfg = MclConfig {
            inflation,
            ..MclConfig::default()
        };
        mcl(comm, &a, &cfg)
    });
    let mut labels = Vec::with_capacity(n);
    for (l, _) in &out.results {
        labels.extend_from_slice(l);
    }
    let mut uniq = labels.clone();
    uniq.sort_unstable();
    uniq.dedup();
    println!(
        "MCL: {} clusters over {n} vertices ({} expansion iterations)",
        uniq.len(),
        out.results[0].1
    );
    report_run(&out.profiles, "mcl");
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return Err(USAGE.to_string());
    };
    let flags = parse_flags(rest)?;
    match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "convert" => cmd_convert(&flags),
        "multiply" => cmd_multiply(&flags),
        "bfs" => cmd_bfs(&flags),
        "triangles" => cmd_triangles(&flags),
        "mcl" => cmd_mcl(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other}\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
