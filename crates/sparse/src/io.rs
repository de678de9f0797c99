//! MatrixMarket coordinate I/O.
//!
//! The paper's artifact loads SuiteSparse matrices in MatrixMarket format;
//! this reader/writer lets users run the same binaries on real datasets when
//! they have them, instead of the synthetic stand-ins.

use crate::{Coo, Idx};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Parse error for MatrixMarket data.
#[derive(Debug)]
pub enum MmError {
    Io(std::io::Error),
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(m) => write!(f, "MatrixMarket parse error: {m}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

/// Rejects dimensions whose indices do not fit [`Idx`]: their entries'
/// coordinates would silently wrap.
fn check_dims(nrows: u64, ncols: u64) -> Result<(), MmError> {
    let dim = nrows.max(ncols);
    if dim > Idx::MAX as u64 {
        return Err(parse_err(format!(
            "dimension {dim} exceeds the largest index {}",
            Idx::MAX
        )));
    }
    Ok(())
}

/// Reads a MatrixMarket `coordinate` matrix (real/integer/pattern; general or
/// symmetric) from a reader. Pattern entries get value 1.0; symmetric
/// matrices are expanded to general.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Coo<f64>, MmError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .ok_or_else(|| parse_err("empty input"))??
        .to_lowercase();
    if !header.starts_with("%%matrixmarket") {
        return Err(parse_err("missing %%MatrixMarket header"));
    }
    if !header.contains("coordinate") {
        return Err(parse_err("only coordinate format is supported"));
    }
    let pattern = header.contains("pattern");
    let symmetric = header.contains("symmetric");

    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| parse_err(format!("bad size token {t}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(parse_err("size line must have 3 fields"));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    check_dims(nrows as u64, ncols as u64)?;

    let mut coo = Coo::new(nrows, ncols);
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| parse_err("missing row"))?
            .parse()
            .map_err(|_| parse_err("bad row index"))?;
        let c: usize = it
            .next()
            .ok_or_else(|| parse_err("missing col"))?
            .parse()
            .map_err(|_| parse_err("bad col index"))?;
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .ok_or_else(|| parse_err("missing value"))?
                .parse()
                .map_err(|_| parse_err("bad value"))?
        };
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(parse_err(format!("entry ({r},{c}) out of bounds")));
        }
        coo.push((r - 1) as Idx, (c - 1) as Idx, v);
        if symmetric && r != c {
            coo.push((c - 1) as Idx, (r - 1) as Idx, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {seen}")));
    }
    Ok(coo)
}

/// Reads a MatrixMarket file from disk.
pub fn read_matrix_market_file(path: impl AsRef<Path>) -> Result<Coo<f64>, MmError> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Writes a COO matrix in MatrixMarket `coordinate real general` format.
pub fn write_matrix_market<W: Write>(writer: W, m: &Coo<f64>) -> Result<(), MmError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for &(r, c, v) in m.entries() {
        writeln!(w, "{} {} {v}", r + 1, c + 1)?;
    }
    Ok(())
}

/// Writes a COO matrix to a file.
pub fn write_matrix_market_file(path: impl AsRef<Path>, m: &Coo<f64>) -> Result<(), MmError> {
    write_matrix_market(std::fs::File::create(path)?, m)
}

/// Magic header of the binary triplet format.
const BIN_MAGIC: &[u8; 8] = b"TSGEMM1\n";

/// Writes a COO matrix in a compact little-endian binary format (the role
/// PETSc's binary converter plays in the paper's pipeline: MatrixMarket
/// parsing is the bottleneck for large graphs, so convert once, then load
/// fast).
pub fn write_binary<W: Write>(writer: W, m: &Coo<f64>) -> Result<(), MmError> {
    let mut w = BufWriter::new(writer);
    w.write_all(BIN_MAGIC)?;
    for dim in [m.nrows() as u64, m.ncols() as u64, m.nnz() as u64] {
        w.write_all(&dim.to_le_bytes())?;
    }
    for &(r, c, v) in m.entries() {
        w.write_all(&r.to_le_bytes())?;
        w.write_all(&c.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads the binary triplet format written by [`write_binary`].
pub fn read_binary<R: Read>(mut reader: R) -> Result<Coo<f64>, MmError> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != BIN_MAGIC {
        return Err(parse_err("bad binary magic"));
    }
    let mut u64buf = [0u8; 8];
    let mut dims = [0u64; 3];
    for d in &mut dims {
        reader.read_exact(&mut u64buf)?;
        *d = u64::from_le_bytes(u64buf);
    }
    check_dims(dims[0], dims[1])?;
    let (nrows, ncols, nnz) = (dims[0] as usize, dims[1] as usize, dims[2] as usize);
    let mut coo = Coo::new(nrows, ncols);
    let mut u32buf = [0u8; 4];
    for _ in 0..nnz {
        reader.read_exact(&mut u32buf)?;
        let r = Idx::from_le_bytes(u32buf);
        reader.read_exact(&mut u32buf)?;
        let c = Idx::from_le_bytes(u32buf);
        reader.read_exact(&mut u64buf)?;
        let v = f64::from_le_bytes(u64buf);
        if (r as usize) >= nrows || (c as usize) >= ncols {
            return Err(parse_err(format!("binary entry ({r},{c}) out of bounds")));
        }
        coo.push(r, c, v);
    }
    Ok(coo)
}

/// Writes the binary format to a file.
pub fn write_binary_file(path: impl AsRef<Path>, m: &Coo<f64>) -> Result<(), MmError> {
    write_binary(std::fs::File::create(path)?, m)
}

/// Reads the binary format from a file.
pub fn read_binary_file(path: impl AsRef<Path>) -> Result<Coo<f64>, MmError> {
    read_binary(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimesF64;

    #[test]
    fn binary_roundtrip() {
        let m = crate::gen::erdos_renyi(200, 4.0, 9);
        let mut buf = Vec::new();
        write_binary(&mut buf, &m).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        assert!(read_binary(&b"NOTMAGIC-------"[..]).is_err());
    }

    #[test]
    fn binary_rejects_truncated_input() {
        let m = crate::gen::erdos_renyi(10, 2.0, 9);
        let mut buf = Vec::new();
        write_binary(&mut buf, &m).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn roundtrip() {
        let mut m = Coo::new(3, 4);
        m.push(0, 1, 2.5);
        m.push(2, 3, -1.0);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &m).unwrap();
        let back = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(back.to_csr::<PlusTimesF64>(), m.to_csr::<PlusTimesF64>());
    }

    #[test]
    fn reads_pattern_and_comments() {
        let text =
            "%%MatrixMarket matrix coordinate pattern general\n% a comment\n2 2 2\n1 1\n2 2\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.entries()[0], (0, 0, 1.0));
    }

    #[test]
    fn expands_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5.0\n3 3 1.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        // (1,0) mirrored to (0,1); diagonal not duplicated.
        assert_eq!(m.nnz(), 3);
        let csr = m.to_csr::<PlusTimesF64>();
        assert_eq!(csr.get(0, 1), Some(5.0));
        assert_eq!(csr.get(1, 0), Some(5.0));
        assert_eq!(csr.get(2, 2), Some(1.0));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market("garbage\n1 1 0\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_dimensions_beyond_the_index_type() {
        // Row 2^32 + 1 would wrap to row 1.
        let text =
            "%%MatrixMarket matrix coordinate real general\n4294967297 2 1\n4294967297 1 1.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(matches!(err, MmError::Parse(_)), "{err}");
        let mut bin = BIN_MAGIC.to_vec();
        for dim in [2u64, (1 << 32) + 1, 0] {
            bin.extend_from_slice(&dim.to_le_bytes());
        }
        let err = read_binary(&bin[..]).unwrap_err();
        assert!(matches!(err, MmError::Parse(_)), "{err}");
        // The largest index type dimension itself is fine.
        let text = "%%MatrixMarket matrix coordinate real general\n4294967295 1 0\n";
        assert_eq!(
            read_matrix_market(text.as_bytes()).unwrap().nrows(),
            4294967295
        );
    }

    #[test]
    fn rejects_out_of_bounds_entry() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }
}
