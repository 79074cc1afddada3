use bypass_catalog::TableColumns;
use bypass_types::{Column, Tuple, Value};

/// Positional access to a row's values — all the interpreter's
/// borrow-only fast path ever asks of a row.
pub trait Columns {
    fn get(&self, i: usize) -> Option<&Value>;
}

/// What the expression interpreter needs from a row: positional access
/// and, for the rare consumer that must own it (a subquery's outer
/// binding, a memo key), a shared-buffer copy.
///
/// [`Tuple`] is the single-segment row every materialized relation
/// holds; its impl is a direct slice index, so the canonical interpreter
/// loop compiles to exactly the code it was before rows became generic.
/// [`RowView`] is the borrowed concatenation the join loops evaluate
/// predicates on.
pub trait Row: Columns {
    /// An owned copy: a refcount bump for a [`Tuple`], one allocation
    /// for a view.
    fn to_tuple(&self) -> Tuple;

    /// The materialized row this is all of, if there is one.
    fn whole(&self) -> Option<&Tuple>;
}

impl Columns for Tuple {
    #[inline]
    fn get(&self, i: usize) -> Option<&Value> {
        Tuple::get(self, i)
    }
}

impl Row for Tuple {
    #[inline]
    fn to_tuple(&self) -> Tuple {
        self.clone()
    }

    fn whole(&self) -> Option<&Tuple> {
        Some(self)
    }
}

/// The kernel columns of one chunk (`rows` consecutive rows from `lo`)
/// of a loop's input as [`Value`] slices, for the kernel terms no typed
/// loop runs: a [`Column::Values`] is read in place, a typed column
/// through a copy of the chunk's slots — at most `batch_rows` values,
/// made when a term first asks for the column in this chunk.
pub(crate) struct ChunkValues<'a> {
    columns: &'a TableColumns,
    /// By column, once a typed column has been asked for: the `lo` of
    /// the chunk its slots were last copied for, and the copies.
    copies: Vec<(usize, Vec<Value>)>,
    lo: usize,
    rows: usize,
}

impl<'a> ChunkValues<'a> {
    pub(crate) fn new(columns: &'a TableColumns) -> ChunkValues<'a> {
        ChunkValues {
            columns,
            copies: Vec::new(),
            lo: 0,
            rows: 0,
        }
    }

    /// Move on to the chunk of `rows` rows from `lo`.
    pub(crate) fn start(&mut self, lo: usize, rows: usize) {
        (self.lo, self.rows) = (lo, rows);
    }

    /// Make [`Self::column`] answer for `cols`, typed ones included.
    pub(crate) fn fill(&mut self, cols: &[usize]) {
        for &c in cols {
            let col = self.columns.get(c).expect("kernel columns are in range");
            if matches!(**col, Column::Values(_)) {
                continue;
            }
            if self.copies.is_empty() {
                let arity = self.columns.data().schema().arity();
                self.copies.resize(arity, (usize::MAX, Vec::new()));
            }
            let (copied_at, slots) = &mut self.copies[c];
            if *copied_at != self.lo {
                slots.clear();
                slots.extend((self.lo..self.lo + self.rows).map(|r| col.get(r).into_owned()));
                *copied_at = self.lo;
            }
        }
    }

    /// Column `c` of the chunk, indexed from the chunk's first row;
    /// empty for a column beyond the input's arity.
    #[inline]
    pub(crate) fn column(&self, c: usize) -> &[Value] {
        match self.columns.get(c).map(|col| &**col) {
            Some(Column::Values(xs)) => &xs[self.lo..self.lo + self.rows],
            Some(_) => {
                let (copied_at, slots) = &self.copies[c];
                debug_assert_eq!(*copied_at, self.lo, "fill() before reading");
                slots
            }
            None => &[],
        }
    }
}

/// Row `row` of a chunk, read in place: how the chunked σ runs a kernel
/// term through the interpreter's fast path. Only [`Columns`] — the
/// lane is a position in the input's columns, not a tuple to hand out —
/// and only over the columns the kernels read, which is what the
/// kernel-term test guarantees.
pub(crate) struct Lane<'a> {
    pub(crate) chunk: &'a ChunkValues<'a>,
    pub(crate) row: usize,
}

impl Columns for Lane<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<&Value> {
        self.chunk.column(i).get(self.row)
    }
}

/// A borrowed row `seg₀ ◦ seg₁ ◦ … ◦ segₖ`: the left row of a join, the
/// build row it is paired with, values a fused χ appended. Widening is
/// O(1) — a view links to the one it extends instead of copying it —
/// and nothing is allocated until a survivor is materialized with
/// [`Row::to_tuple`].
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    prev: Option<&'a RowView<'a>>,
    /// Arity of `prev`: columns below it resolve there.
    base: usize,
    seg: &'a [Value],
    /// The materialized row this view is all of, if no stage changed it.
    pub(crate) whole: Option<&'a Tuple>,
}

impl<'a> RowView<'a> {
    pub fn new(seg: &'a [Value]) -> RowView<'a> {
        RowView {
            prev: None,
            base: 0,
            seg,
            whole: None,
        }
    }

    /// The view of a whole materialized row.
    pub fn of(t: &'a Tuple) -> RowView<'a> {
        let whole = Some(t);
        RowView {
            whole,
            ..RowView::new(t.values())
        }
    }

    /// `self ◦ seg`.
    pub fn with<'b>(&'b self, seg: &'b [Value]) -> RowView<'b>
    where
        'a: 'b,
    {
        RowView {
            prev: Some(self),
            base: self.base + self.seg.len(),
            seg,
            whole: None,
        }
    }
}

impl Columns for RowView<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<&Value> {
        let mut v = self;
        while i < v.base {
            v = v.prev?;
        }
        v.seg.get(i - v.base)
    }
}

impl Row for RowView<'_> {
    fn whole(&self) -> Option<&Tuple> {
        self.whole
    }

    fn to_tuple(&self) -> Tuple {
        if let Some(t) = self.whole {
            return t.clone();
        }
        match self.prev {
            None => self.seg.iter().cloned().collect(),
            Some(p) if p.prev.is_none() => Tuple::from_pair(p.seg, self.seg),
            // Three or more segments: index through the links. A mapped
            // range is exact-size, so this is still one allocation.
            Some(_) => (0..self.base + self.seg.len())
                .map(|i| self.get(i).expect("index below arity").clone())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vs: &[i64]) -> Vec<Value> {
        vs.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn view_indexes_across_segments_and_materializes_in_order() {
        let (a, b, c) = (ints(&[1, 2]), ints(&[]), ints(&[3]));
        let va = RowView::new(&a);
        let vb = va.with(&b);
        let vc = vb.with(&c);
        assert_eq!(vc.get(0), Some(&Value::Int(1)));
        assert_eq!(vc.get(2), Some(&Value::Int(3)));
        assert_eq!(vc.get(3), None);
        assert_eq!(vc.to_tuple(), Tuple::new(ints(&[1, 2, 3])));
        assert_eq!(vb.to_tuple(), Tuple::new(a.clone()));
        assert_eq!(va.to_tuple(), Tuple::new(a.clone()));
        // A view of a whole row hands that row on; widening it does not.
        let t = Tuple::new(a.clone());
        let whole = RowView::of(&t);
        assert!(whole.to_tuple().shares_buffer(&t));
        assert!(whole.with(&c).whole.is_none());
    }
}
