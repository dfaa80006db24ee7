//! Sparse matrices in vector-of-lists format (§4.1.2).
//!
//! Each stored row is a singly linked list of `(column id, value)` pairs —
//! the format Dyn-MPI mandates so it can redistribute data *and* metadata
//! uniformly with dense matrices. On a send, a row is packed into a flat
//! vector; on receipt it is unpacked back into a list (§4.4). The cost of
//! this uniformity (list traversal vs. vector scan) is quantified by the
//! `sparse_layout` bench.

use std::any::Any;

use dynmpi_comm::{append_bytes, write_bytes_at, Pod};

use crate::array::{AllocStats, RedistArray};
use crate::rowset::RowSet;

struct Node<P> {
    col: u32,
    val: P,
    next: Option<Box<Node<P>>>,
}

/// One sparse row: a list of `(col, value)` pairs sorted by column.
pub struct SparseRow<P> {
    head: Option<Box<Node<P>>>,
    nnz: usize,
}

impl<P: Pod> SparseRow<P> {
    /// An empty row.
    pub fn new() -> Self {
        SparseRow { head: None, nnz: 0 }
    }

    /// Number of stored elements.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Inserts or overwrites the element at `col`.
    pub fn set(&mut self, col: u32, val: P) {
        let mut cur = &mut self.head;
        loop {
            // Immutable peek decides; the cursor then either advances (by
            // move, so no borrow outlives the step) or rewrites the slot.
            match cur.as_deref() {
                Some(n) if n.col < col => {}
                Some(n) if n.col == col => break,
                _ => {
                    let next = cur.take();
                    *cur = Some(Box::new(Node { col, val, next }));
                    self.nnz += 1;
                    return;
                }
            }
            let slot = cur;
            cur = &mut slot.as_mut().expect("peeked Some").next;
        }
        cur.as_mut().expect("peeked Some").val = val;
    }

    /// Value at `col`, if stored.
    pub fn get(&self, col: u32) -> Option<&P> {
        let mut cur = self.head.as_deref();
        while let Some(node) = cur {
            if node.col == col {
                return Some(&node.val);
            }
            if node.col > col {
                return None;
            }
            cur = node.next.as_deref();
        }
        None
    }

    /// Removes the element at `col`; returns whether it existed.
    pub fn remove(&mut self, col: u32) -> bool {
        let mut cur = &mut self.head;
        loop {
            // Immutable peek first, so no pattern borrow is held when the
            // slot is rewritten.
            match cur.as_deref() {
                None => return false,
                Some(n) if n.col > col => return false,
                Some(n) if n.col == col => break,
                Some(_) => {}
            }
            let slot = cur;
            cur = &mut slot.as_mut().expect("peeked Some").next;
        }
        let node = cur.take().expect("peeked Some");
        *cur = node.next;
        self.nnz -= 1;
        true
    }

    /// Iterates `(col, &value)` in column order.
    pub fn iter(&self) -> SparseRowIter<'_, P> {
        SparseRowIter {
            cur: self.head.as_deref(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(u32, &mut P)) {
        let mut cur = self.head.as_deref_mut();
        while let Some(node) = cur {
            f(node.col, &mut node.val);
            cur = node.next.as_deref_mut();
        }
    }

    /// Flattens into `(cols, vals)` vectors — the packed wire form.
    pub fn to_vectors(&self) -> (Vec<u32>, Vec<P>) {
        let mut cols = Vec::with_capacity(self.nnz);
        let mut vals = Vec::with_capacity(self.nnz);
        for (c, v) in self.iter() {
            cols.push(c);
            vals.push(*v);
        }
        (cols, vals)
    }

    /// Rebuilds a row from packed vectors (columns must be sorted and
    /// unique — the format `to_vectors` emits).
    pub fn from_vectors(cols: &[u32], vals: &[P]) -> Self {
        assert_eq!(cols.len(), vals.len(), "cols/vals length mismatch");
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "columns must be sorted unique"
        );
        // Build back-to-front so each push is O(1).
        let mut head = None;
        for (&c, &v) in cols.iter().zip(vals).rev() {
            head = Some(Box::new(Node {
                col: c,
                val: v,
                next: head,
            }));
        }
        SparseRow {
            head,
            nnz: cols.len(),
        }
    }

    /// Rebuilds a row from its wire sections (`cols`: `u32` × nnz, `vals`:
    /// `P` × nnz, as [`SparseMatrix`]'s `pack_rows` writes them), decoding
    /// each element straight into its list node.
    fn from_wire(cols: &[u8], vals: &[u8]) -> Self {
        let nnz = cols.len() / 4;
        let mut head: Option<Box<Node<P>>> = None;
        for (c, v) in cols
            .chunks_exact(4)
            .zip(vals.chunks_exact(std::mem::size_of::<P>()))
            .rev()
        {
            let mut node = Box::new(Node {
                col: 0,
                val: P::ZERO,
                next: head,
            });
            write_bytes_at(std::slice::from_mut(&mut node.col), 0, c);
            write_bytes_at(std::slice::from_mut(&mut node.val), 0, v);
            debug_assert!(
                node.next.as_ref().is_none_or(|n| node.col < n.col),
                "columns must be sorted unique"
            );
            head = Some(node);
        }
        SparseRow { head, nnz }
    }
}

impl<P: Pod> Default for SparseRow<P> {
    fn default() -> Self {
        SparseRow::new()
    }
}

// An explicit iterative Drop: the default recursive drop of a long list
// can overflow the stack.
impl<P> Drop for SparseRow<P> {
    fn drop(&mut self) {
        let mut cur = self.head.take();
        while let Some(mut node) = cur {
            cur = node.next.take();
        }
    }
}

/// Iterator over one row's `(col, &value)` pairs.
pub struct SparseRowIter<'a, P> {
    cur: Option<&'a Node<P>>,
}

impl<'a, P> Iterator for SparseRowIter<'a, P> {
    type Item = (u32, &'a P);
    fn next(&mut self) -> Option<Self::Item> {
        let node = self.cur?;
        self.cur = node.next.as_deref();
        Some((node.col, &node.val))
    }
}

/// A sparse matrix: a vector of optional rows, mirroring the dense
/// projection layout with lists for extended rows.
pub struct SparseMatrix<P: Pod> {
    nrows: usize,
    ncols: usize,
    rows: Vec<Option<SparseRow<P>>>,
    stats: AllocStats,
}

impl<P: Pod> SparseMatrix<P> {
    /// An `nrows × ncols` matrix with no rows stored.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        SparseMatrix {
            nrows,
            ncols,
            rows: (0..nrows).map(|_| None).collect(),
            stats: AllocStats::default(),
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Is row `i` stored locally?
    pub fn has_row(&self, i: usize) -> bool {
        self.rows[i].is_some()
    }

    /// Read access to a stored row.
    pub fn row(&self, i: usize) -> &SparseRow<P> {
        self.rows[i]
            .as_ref()
            .unwrap_or_else(|| panic!("sparse row {i} is not stored on this node"))
    }

    /// Mutable access, allocating an empty row if absent.
    pub fn row_mut(&mut self, i: usize) -> &mut SparseRow<P> {
        if self.rows[i].is_none() {
            self.rows[i] = Some(SparseRow::new());
            self.stats.allocations += 1;
        }
        self.rows[i].as_mut().unwrap()
    }

    /// Sets element `(i, col)`.
    pub fn set(&mut self, i: usize, col: u32, val: P) {
        assert!(
            (col as usize) < self.ncols,
            "column {col} out of {}",
            self.ncols
        );
        self.row_mut(i).set(col, val);
    }

    /// Stored elements in row-major `(row, col, &value)` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32, &P)> + '_ {
        self.rows.iter().enumerate().flat_map(|(i, r)| {
            r.iter()
                .flat_map(move |row| row.iter().map(move |(c, v)| (i, c, v)))
        })
    }

    /// Total stored elements across present rows.
    pub fn nnz(&self) -> usize {
        self.rows
            .iter()
            .filter_map(|r| r.as_ref().map(|x| x.nnz()))
            .sum()
    }
}

// Wire format per row: [nnz: u64][cols: u32 × nnz][vals: P × nnz],
// concatenated in row-set order.
impl<P: Pod> RedistArray for SparseMatrix<P> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn alloc_rows(&mut self, rows: &RowSet) {
        for i in rows.iter() {
            let _ = self.row_mut(i);
        }
    }

    // One copy each way: list elements are written straight into the
    // payload and decoded straight back into list nodes.
    fn pack_rows(&mut self, rows: &RowSet, take: bool) -> Vec<u8> {
        let elem = 4 + std::mem::size_of::<P>();
        let len = rows
            .iter()
            .map(|i| 8 + self.rows[i].as_ref().map_or(0, |r| r.nnz * elem))
            .sum();
        let mut out = Vec::with_capacity(len);
        for i in rows.iter() {
            let row = self.rows[i]
                .as_ref()
                .unwrap_or_else(|| panic!("packing absent sparse row {i}"));
            self.stats.bytes_copied += (row.nnz * elem) as u64;
            out.extend_from_slice(&(row.nnz as u64).to_le_bytes());
            for (c, _) in row.iter() {
                append_bytes(&[c], &mut out);
            }
            for (_, v) in row.iter() {
                append_bytes(std::slice::from_ref(v), &mut out);
            }
            if take {
                self.rows[i] = None;
            }
        }
        out
    }

    fn unpack_rows(&mut self, rows: &RowSet, bytes: &[u8]) {
        let esz = std::mem::size_of::<P>();
        let mut off = 0usize;
        for i in rows.iter() {
            assert!(
                off + 8 <= bytes.len(),
                "truncated sparse payload at row {i}"
            );
            let nnz = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()) as usize;
            off += 8;
            let cols_len = nnz * 4;
            let vals_len = nnz * esz;
            assert!(
                off + cols_len + vals_len <= bytes.len(),
                "truncated sparse payload"
            );
            let cols = &bytes[off..off + cols_len];
            let vals = &bytes[off + cols_len..off + cols_len + vals_len];
            off += cols_len + vals_len;
            self.stats.allocations += 1;
            self.stats.bytes_allocated += (cols_len + vals_len) as u64;
            self.rows[i] = Some(SparseRow::from_wire(cols, vals));
        }
        assert_eq!(off, bytes.len(), "sparse payload has trailing bytes");
    }

    fn drop_rows(&mut self, rows: &RowSet) {
        for i in rows.iter() {
            self.rows[i] = None;
        }
    }

    fn present_rows(&self) -> RowSet {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|_| i))
            .collect()
    }

    fn row_bytes_estimate(&self) -> usize {
        let present: usize = self
            .rows
            .iter()
            .filter_map(|r| r.as_ref().map(|x| x.nnz()))
            .sum();
        let nrows = self.present_rows().len().max(1);
        8 + (present / nrows) * (4 + std::mem::size_of::<P>())
    }

    fn alloc_stats(&self) -> AllocStats {
        self.stats
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_set_get_sorted() {
        let mut r = SparseRow::<f64>::new();
        r.set(5, 5.0);
        r.set(1, 1.0);
        r.set(3, 3.0);
        assert_eq!(r.nnz(), 3);
        assert_eq!(r.get(3), Some(&3.0));
        assert_eq!(r.get(2), None);
        let cols: Vec<u32> = r.iter().map(|(c, _)| c).collect();
        assert_eq!(cols, vec![1, 3, 5]);
    }

    #[test]
    fn set_overwrites() {
        let mut r = SparseRow::<f64>::new();
        r.set(2, 1.0);
        r.set(2, 9.0);
        assert_eq!(r.nnz(), 1);
        assert_eq!(r.get(2), Some(&9.0));
    }

    #[test]
    fn remove_elements() {
        let mut r = SparseRow::<f64>::new();
        for c in [1u32, 2, 3] {
            r.set(c, f64::from(c));
        }
        assert!(r.remove(2));
        assert!(!r.remove(2));
        assert_eq!(r.nnz(), 2);
        assert_eq!(r.iter().map(|(c, _)| c).collect::<Vec<_>>(), vec![1, 3]);
        assert!(r.remove(1));
        assert!(r.remove(3));
        assert_eq!(r.nnz(), 0);
        assert!(r.iter().next().is_none());
    }

    #[test]
    fn for_each_mut_updates() {
        let mut r = SparseRow::<f64>::new();
        r.set(0, 1.0);
        r.set(7, 2.0);
        r.for_each_mut(|_, v| *v *= 10.0);
        assert_eq!(r.get(7), Some(&20.0));
    }

    #[test]
    fn vector_round_trip() {
        let mut r = SparseRow::<f64>::new();
        for c in [4u32, 0, 9] {
            r.set(c, f64::from(c) * 1.5);
        }
        let (cols, vals) = r.to_vectors();
        let r2 = SparseRow::from_vectors(&cols, &vals);
        assert_eq!(r2.nnz(), 3);
        for (c, v) in r2.iter() {
            assert_eq!(*v, f64::from(c) * 1.5);
        }
    }

    #[test]
    fn long_row_drop_does_not_overflow() {
        let mut r = SparseRow::<f64>::new();
        // Build in descending order so each set is O(1) at the head.
        for c in (0..200_000u32).rev() {
            r.set(c, 0.0);
        }
        assert_eq!(r.nnz(), 200_000);
        drop(r); // must not blow the stack
    }

    #[test]
    fn matrix_pack_unpack_round_trip() {
        let mut a = SparseMatrix::<f64>::new(6, 100);
        a.set(1, 3, 1.3);
        a.set(1, 50, 1.5);
        a.set(2, 0, 2.0);
        a.row_mut(4); // present but empty row
        let rows = RowSet::from_ranges([1..3, 4..5]);
        let bytes = a.pack_rows(&rows, false);

        let mut b = SparseMatrix::<f64>::new(6, 100);
        b.unpack_rows(&rows, &bytes);
        assert_eq!(b.row(1).get(3), Some(&1.3));
        assert_eq!(b.row(1).get(50), Some(&1.5));
        assert_eq!(b.row(2).get(0), Some(&2.0));
        assert_eq!(b.row(4).nnz(), 0);
        assert_eq!(b.nnz(), 3);
    }

    #[test]
    fn pack_take_removes_rows() {
        let mut a = SparseMatrix::<f64>::new(3, 10);
        a.set(0, 1, 1.0);
        let _ = a.pack_rows(&RowSet::from_range(0..1), true);
        assert!(!a.has_row(0));
    }

    #[test]
    fn matrix_iter_row_major() {
        let mut a = SparseMatrix::<i64>::new(3, 10);
        a.set(2, 1, 21);
        a.set(0, 5, 5);
        a.set(0, 2, 2);
        let got: Vec<(usize, u32, i64)> = a.iter().map(|(i, c, v)| (i, c, *v)).collect();
        assert_eq!(got, vec![(0, 2, 2), (0, 5, 5), (2, 1, 21)]);
    }

    #[test]
    fn unpack_corrupt_payload_panics() {
        let mut a = SparseMatrix::<f64>::new(2, 4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.unpack_rows(&RowSet::from_range(0..1), &[1, 2, 3]);
        }));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn column_bound_checked() {
        let mut a = SparseMatrix::<f64>::new(2, 4);
        a.set(0, 4, 1.0);
    }
}
