//! The `tsgemm` binary rejects rank counts its algorithms cannot run on, and
//! out-of-range generator parameters, with an error message and a failing
//! exit status, not a panic.

use std::path::PathBuf;
use std::process::Command;

/// A 4×4 MatrixMarket file in a directory of its own (pid + test name, so
/// parallel tests and concurrent runs never share it).
fn tiny_mtx(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsgemm-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("a.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real general\n4 4 5\n1 1 1.0\n2 2 2.0\n3 3 3.0\n4 4 4.0\n1 4 0.5\n",
    )
    .unwrap();
    path
}

/// Runs `tsgemm multiply` on `mtx` with `args`; returns (success, stderr).
fn multiply(mtx: &PathBuf, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tsgemm"))
        .arg("multiply")
        .arg("--matrix")
        .arg(mtx)
        .args(["--d", "4"])
        .args(args)
        .output()
        .unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_refused(mtx: &PathBuf, args: &[&str], message: &str) {
    let (ok, stderr) = multiply(mtx, args);
    assert!(!ok, "{args:?} must exit non-zero");
    assert!(stderr.contains(message), "{args:?}: stderr {stderr:?}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr:?}");
}

#[test]
fn bad_rank_counts_are_errors_not_panics() {
    let mtx = tiny_mtx("bad_rank_counts_are_errors_not_panics");
    assert_refused(
        &mtx,
        &["--algo", "summa2d", "-p", "8"],
        "--algo summa2d needs a perfect-square -p, got 8",
    );
    assert_refused(&mtx, &["-p", "0"], "-p must be at least 1");
    assert_refused(
        &mtx,
        &["--algo", "summa3d", "-p", "8", "--layers", "3"],
        "got p=8, layers=3",
    );
    assert_refused(
        &mtx,
        &["--algo", "summa3d", "-p", "8", "--layers", "4"],
        "got p=8, layers=4",
    );
    assert_refused(
        &mtx,
        &["--algo", "summa3d", "-p", "8", "--layers", "0"],
        "got p=8, layers=0",
    );
    // Valid shapes still run.
    for args in [
        &["--algo", "summa2d", "-p", "4"][..],
        &["--algo", "summa3d", "-p", "8", "--layers", "2"][..],
    ] {
        let (ok, stderr) = multiply(&mtx, args);
        assert!(ok, "{args:?}: stderr {stderr:?}");
    }
    std::fs::remove_dir_all(mtx.parent().unwrap()).ok();
}

#[test]
fn bad_generator_parameters_are_errors_not_panics() {
    let mtx = tiny_mtx("bad_generator_parameters_are_errors_not_panics");
    for s in ["1.5", "-1", "NaN"] {
        assert_refused(&mtx, &["--sparsity", s], "--sparsity must be in [0, 1]");
    }
    let out_path = mtx.with_file_name("x.bin");
    let out = Command::new(env!("CARGO_BIN_EXE_tsgemm"))
        .args(["generate", "--kind", "rmat", "--scale", "70", "--out"])
        .arg(&out_path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "--scale 70 must exit non-zero");
    assert!(stderr.contains("--scale must be below 32"), "{stderr:?}");
    assert!(!stderr.contains("panicked"), "{stderr:?}");
    assert!(!out_path.exists(), "nothing is written");
    // A row index past the 32-bit index type is refused, not wrapped.
    let big = mtx.with_file_name("big.mtx");
    std::fs::write(
        &big,
        "%%MatrixMarket matrix coordinate real general\n4294967297 2 1\n4294967297 1 1.0\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tsgemm"))
        .args(["convert", "--in"])
        .arg(&big)
        .arg("--out")
        .arg(&out_path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "convert must exit non-zero");
    assert!(stderr.contains("exceeds the largest index"), "{stderr:?}");
    assert!(!out_path.exists(), "nothing is written");
    // The valid edges still run.
    for s in ["0", "1"] {
        let (ok, stderr) = multiply(&mtx, &["--sparsity", s, "-p", "2"]);
        assert!(ok, "--sparsity {s}: stderr {stderr:?}");
    }
    std::fs::remove_dir_all(mtx.parent().unwrap()).ok();
}
