//! One-copy row packing is an exact drop-in for the two-copy path it
//! replaced: over generated row sets, dense and sparse (with empty rows),
//! with `take` set and unset, `pack_rows` emits the byte-identical
//! payload, `unpack_rows` restores every row bit for bit, and both charge
//! the same `comm.bytes_copied` total. The two-copy implementation is
//! kept here as the oracle.

use dynmpi::{DenseMatrix, RedistArray, RowSet, SparseMatrix, SparseRow};
use dynmpi_comm::{from_bytes, to_bytes, Pod, BYTES_COPIED};
use dynmpi_obs::Recorder;
use dynmpi_testkit::{check, Rng};

const NROWS: usize = 120;

/// Runs `f` with a recorder installed and returns its result together
/// with the payload bytes it charged to `comm.bytes_copied`.
fn copied<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let rec = Recorder::new();
    let out = {
        let _scope = rec.install(0);
        f()
    };
    (out, rec.merged_metrics().counter(BYTES_COPIED))
}

fn gen_rows(rng: &mut Rng) -> RowSet {
    let ranges = rng.vec_in(0, 8, |r| {
        let start = r.range_usize(0, NROWS);
        start..(start + r.range_usize(1, 16)).min(NROWS)
    });
    RowSet::from_ranges(ranges)
}

// ---------------- the two-copy oracle -----------------------------------

fn oracle_dense_pack<P: Pod>(m: &mut DenseMatrix<P>, rows: &RowSet, take: bool) -> Vec<u8> {
    let mut flat: Vec<P> = Vec::with_capacity(rows.len() * m.row_len());
    for i in rows.iter() {
        flat.extend_from_slice(m.row(i));
    }
    if take {
        m.drop_rows(rows);
    }
    to_bytes(&flat)
}

fn oracle_dense_unpack<P: Pod>(m: &mut DenseMatrix<P>, rows: &RowSet, bytes: &[u8]) {
    let flat: Vec<P> = from_bytes(bytes);
    assert_eq!(flat.len(), rows.len() * m.row_len());
    for (k, i) in rows.iter().enumerate() {
        m.set_row(i, &flat[k * m.row_len()..(k + 1) * m.row_len()]);
    }
}

fn oracle_sparse_pack<P: Pod>(m: &mut SparseMatrix<P>, rows: &RowSet, take: bool) -> Vec<u8> {
    let mut out = Vec::new();
    for i in rows.iter() {
        let (cols, vals) = m.row(i).to_vectors();
        out.extend_from_slice(&(cols.len() as u64).to_le_bytes());
        out.extend_from_slice(&to_bytes(&cols));
        out.extend_from_slice(&to_bytes(&vals));
    }
    if take {
        m.drop_rows(rows);
    }
    out
}

fn oracle_sparse_unpack<P: Pod>(m: &mut SparseMatrix<P>, rows: &RowSet, bytes: &[u8]) {
    let esz = std::mem::size_of::<P>();
    let mut off = 0;
    for i in rows.iter() {
        let nnz = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()) as usize;
        off += 8;
        let cols: Vec<u32> = from_bytes(&bytes[off..off + 4 * nnz]);
        off += 4 * nnz;
        let vals: Vec<P> = from_bytes(&bytes[off..off + esz * nnz]);
        off += esz * nnz;
        *m.row_mut(i) = SparseRow::from_vectors(&cols, &vals);
    }
    assert_eq!(off, bytes.len());
}

// ---------------- dense ---------------------------------------------------

fn dense_case<P: Pod + Default + PartialEq + std::fmt::Debug>(
    rng: &mut Rng,
    value: impl Fn(&mut Rng) -> P,
) {
    let rows = gen_rows(rng);
    let row_len = rng.range_usize(1, 24);
    let take = rng.chance(0.5);
    let mut src = DenseMatrix::<P>::new(NROWS, row_len);
    src.alloc_rows(&rows);
    for i in rows.iter() {
        for v in src.row_mut(i) {
            *v = value(rng);
        }
    }
    let original: Vec<Vec<P>> = rows.iter().map(|i| src.row(i).to_vec()).collect();
    let mut twin = DenseMatrix::<P>::new(NROWS, row_len);
    for (i, row) in rows.iter().zip(&original) {
        twin.set_row(i, row);
    }

    let (bytes, packed) = copied(|| src.pack_rows(&rows, take));
    let (want, want_packed) = copied(|| oracle_dense_pack(&mut twin, &rows, take));
    assert_eq!(bytes, want, "dense payload differs (take={take})");
    assert_eq!(packed, want_packed, "dense pack bytes_copied");
    assert_eq!(
        packed,
        bytes.len() as u64,
        "every payload byte is charged once"
    );
    assert_eq!(
        src.present_rows(),
        twin.present_rows(),
        "take releases the same rows"
    );

    let mut dst = DenseMatrix::<P>::new(NROWS, row_len);
    let mut dst_twin = DenseMatrix::<P>::new(NROWS, row_len);
    let ((), unpacked) = copied(|| dst.unpack_rows(&rows, &bytes));
    let ((), want_unpacked) = copied(|| oracle_dense_unpack(&mut dst_twin, &rows, &bytes));
    assert_eq!(unpacked, want_unpacked, "dense unpack bytes_copied");
    assert_eq!(dst.alloc_stats(), dst_twin.alloc_stats());
    assert_eq!(dst.present_rows(), rows);
    for (i, row) in rows.iter().zip(&original) {
        assert_eq!(dst.row(i), &row[..], "round trip of row {i}");
    }
}

#[test]
fn dense_one_copy_pack_matches_two_copy_oracle() {
    check("dense_one_copy_f64", |rng| {
        dense_case(rng, |r| r.range_f64(-1e6, 1e6))
    });
    // Arbitrary 8-byte patterns (every NaN payload an f64 row can hold).
    check("dense_one_copy_u64", |rng| dense_case(rng, Rng::next_u64));
    check("dense_one_copy_i16", |rng| {
        dense_case(rng, |r| r.range_i64(-30_000, 30_000) as i16)
    });
}

// ---------------- sparse --------------------------------------------------

fn sparse_case(rng: &mut Rng) {
    let ncols = 64;
    let rows = gen_rows(rng);
    let take = rng.chance(0.5);
    let mut src = SparseMatrix::<f64>::new(NROWS, ncols);
    let mut twin = SparseMatrix::<f64>::new(NROWS, ncols);
    for i in rows.iter() {
        // A third of the rows stay present but empty.
        let _ = src.row_mut(i);
        let _ = twin.row_mut(i);
        if rng.chance(0.33) {
            continue;
        }
        for _ in 0..rng.range_usize(1, 12) {
            let (c, v) = (
                rng.range_u32(0, ncols as u32),
                f64::from_bits(rng.next_u64()),
            );
            src.set(i, c, v);
            twin.set(i, c, v);
        }
    }
    let original: Vec<(Vec<u32>, Vec<u64>)> = rows
        .iter()
        .map(|i| {
            let (c, v) = src.row(i).to_vectors();
            (c, v.iter().map(|x| x.to_bits()).collect())
        })
        .collect();

    let (bytes, packed) = copied(|| src.pack_rows(&rows, take));
    let (want, want_packed) = copied(|| oracle_sparse_pack(&mut twin, &rows, take));
    assert_eq!(bytes, want, "sparse payload differs (take={take})");
    assert_eq!(packed, want_packed, "sparse pack bytes_copied");
    let headers = 8 * rows.len() as u64;
    assert_eq!(
        packed,
        bytes.len() as u64 - headers,
        "every element byte is charged once"
    );
    assert_eq!(
        src.present_rows(),
        twin.present_rows(),
        "take releases the same rows"
    );

    let mut dst = SparseMatrix::<f64>::new(NROWS, ncols);
    let mut dst_twin = SparseMatrix::<f64>::new(NROWS, ncols);
    let ((), unpacked) = copied(|| dst.unpack_rows(&rows, &bytes));
    let ((), want_unpacked) = copied(|| oracle_sparse_unpack(&mut dst_twin, &rows, &bytes));
    assert_eq!(unpacked, want_unpacked, "sparse unpack bytes_copied");
    assert_eq!(dst.present_rows(), rows);
    for (i, (cols, bits)) in rows.iter().zip(&original) {
        let (c, v) = dst.row(i).to_vectors();
        assert_eq!(&c, cols, "round trip of row {i} columns");
        let v: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
        assert_eq!(&v, bits, "round trip of row {i} values");
        assert_eq!(dst.row(i).nnz(), cols.len());
    }
}

#[test]
fn sparse_one_copy_pack_matches_two_copy_oracle() {
    check("sparse_one_copy", sparse_case);
}
