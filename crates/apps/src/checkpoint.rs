//! Epoch-granular checkpoint/restart for the iterative applications.
//!
//! Long embedding trainings and MCL runs at scale outlive the mean time
//! between failures, so both applications can persist their per-rank state
//! (the local block of the iterate) at every epoch/iteration boundary using
//! the [`tsgemm_sparse::io`] binary triplet format. A restarted run resumes
//! from the last epoch *every* rank completed and is bit-identical to an
//! uninterrupted run — the applications reseed their RNG per epoch, and the
//! binary format round-trips `f64` values exactly.
//!
//! Writes are atomic (write to a `.tmp` sibling, then rename), so a rank
//! killed mid-write never leaves a truncated checkpoint that a restart
//! would trust.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use tsgemm_net::Comm;
use tsgemm_sparse::io::{read_binary_file, write_binary};
use tsgemm_sparse::{Coo, Csr, Idx, PlusTimesF64};

/// Saves and restores one application's per-rank iterate blocks under a
/// directory. Cheap to clone (it's a path plus a name); embed it in an
/// application config to opt into checkpointing.
#[derive(Clone, Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    name: String,
}

impl Checkpointer {
    /// Checkpoints named `name` under `dir` (created on first save).
    pub fn new(dir: impl Into<PathBuf>, name: impl Into<String>) -> Self {
        Self {
            dir: dir.into(),
            name: name.into(),
        }
    }

    fn path(&self, rank: usize, epoch: usize) -> PathBuf {
        self.dir.join(format!("{}.r{rank}.e{epoch}.bin", self.name))
    }

    /// Atomically writes `rank`'s local block for `epoch`.
    pub fn save(&self, rank: usize, epoch: usize, m: &Csr<f64>) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let final_path = self.path(rank, epoch);
        let tmp_path = final_path.with_extension("bin.tmp");
        let coo = csr_to_coo(m);
        {
            let file = fs::File::create(&tmp_path)?;
            write_binary(file, &coo).map_err(|e| io::Error::other(e.to_string()))?;
        }
        fs::rename(&tmp_path, &final_path)
    }

    /// Loads `rank`'s block for `epoch`, or `None` if absent/corrupt.
    pub fn load(&self, rank: usize, epoch: usize) -> Option<Csr<f64>> {
        let coo = read_binary_file(self.path(rank, epoch)).ok()?;
        Some(coo.to_csr::<PlusTimesF64>())
    }

    /// Latest epoch below `below` for which this rank has a checkpoint.
    pub fn latest_local(&self, rank: usize, below: usize) -> Option<usize> {
        (0..below).rev().find(|&e| self.path(rank, e).is_file())
    }

    /// The last epoch **all** ranks completed (allreduce-min of the ranks'
    /// latest checkpoints), or `None` if any rank has no checkpoint. All
    /// group members must call this (it is a collective).
    pub fn resume_epoch(&self, comm: &mut Comm, below: usize, tag: &str) -> Option<usize> {
        let local = self
            .latest_local(comm.rank(), below)
            .map(|e| e as i64)
            .unwrap_or(-1);
        let agreed = comm.allreduce(local, i64::min, tag.to_string());
        usize::try_from(agreed).ok()
    }

    /// Removes every checkpoint file of this name (all ranks, all epochs).
    pub fn clear(&self) -> io::Result<()> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Ok(());
        };
        let prefix = format!("{}.", self.name);
        for entry in entries {
            let entry = entry?;
            if entry
                .file_name()
                .to_string_lossy()
                .starts_with(prefix.as_str())
            {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    /// The directory checkpoints live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

fn csr_to_coo(m: &Csr<f64>) -> Coo<f64> {
    let mut coo = Coo::new(m.nrows(), m.ncols());
    for (r, cols, vals) in m.iter_rows() {
        for (&c, &v) in cols.iter().zip(vals) {
            coo.push(r as Idx, c, v);
        }
    }
    coo
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::random_tall;

    fn temp_dir(label: &str) -> PathBuf {
        // pid + a process-wide counter: tests run on parallel threads of one
        // process, so the pid alone does not keep their files apart.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tsgemm-ckpt-{label}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_roundtrip_is_bit_exact() {
        let ck = Checkpointer::new(temp_dir("roundtrip"), "z");
        let m = random_tall(40, 8, 0.5, 11).to_csr::<PlusTimesF64>();
        ck.save(0, 3, &m).unwrap();
        let back = ck.load(0, 3).unwrap();
        assert_eq!(back.indptr(), m.indptr());
        assert_eq!(back.indices(), m.indices());
        // Bit-level equality, not approximate.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.values()), bits(m.values()));
        ck.clear().unwrap();
        assert!(ck.load(0, 3).is_none());
    }

    #[test]
    fn latest_local_finds_newest_epoch() {
        let ck = Checkpointer::new(temp_dir("latest"), "z");
        let m = random_tall(10, 4, 0.5, 12).to_csr::<PlusTimesF64>();
        assert_eq!(ck.latest_local(0, 10), None);
        ck.save(0, 1, &m).unwrap();
        ck.save(0, 4, &m).unwrap();
        assert_eq!(ck.latest_local(0, 10), Some(4));
        assert_eq!(ck.latest_local(0, 4), Some(1));
        ck.clear().unwrap();
    }

    #[test]
    fn resume_epoch_takes_group_minimum() {
        let dir = temp_dir("resume");
        let ck0 = Checkpointer::new(&dir, "m");
        let m = random_tall(12, 4, 0.5, 13).to_csr::<PlusTimesF64>();
        // Rank 0 completed epochs 0..=2, rank 1 only 0..=1, rank 2 none.
        for e in 0..3 {
            ck0.save(0, e, &m).unwrap();
        }
        for e in 0..2 {
            ck0.save(1, e, &m).unwrap();
        }
        let out = World::run(3, |comm| {
            let ck = Checkpointer::new(&dir, "m");
            ck.resume_epoch(comm, 10, "ck")
        });
        assert!(
            out.results.iter().all(|r| r.is_none()),
            "rank 2 has nothing"
        );

        ck0.save(2, 0, &m).unwrap();
        let out = World::run(3, |comm| {
            let ck = Checkpointer::new(&dir, "m");
            ck.resume_epoch(comm, 10, "ck")
        });
        assert!(out.results.iter().all(|r| *r == Some(0)));
        ck0.clear().unwrap();
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let ck = Checkpointer::new(temp_dir("atomic"), "z");
        let m = random_tall(10, 4, 0.5, 14).to_csr::<PlusTimesF64>();
        ck.save(0, 0, &m).unwrap();
        let leftovers: Vec<_> = fs::read_dir(ck.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        ck.clear().unwrap();
    }
}
