use std::sync::Arc;

use bypass_catalog::TableColumns;
use bypass_types::{Relation, Tuple, Value};

use crate::node::{PhysKind, PhysNode};

/// Positional access to a row's cells — all the interpreter's
/// borrow-only fast path ever asks of a row. A cell is lent to `f`, not
/// returned: a cell of a typed base-table column exists only as the
/// stack temporary [`bypass_types::Column::with_slot`] builds.
pub trait Columns {
    /// `f` of cell `i`; `None` past the row's arity, `f` not called.
    fn with_cell<T>(&self, i: usize, f: impl FnOnce(&Value) -> T) -> Option<T>;
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
    #[inline(always)]
    fn with_cell<T>(&self, i: usize, f: impl FnOnce(&Value) -> T) -> Option<T> {
        self.values().get(i).map(f)
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

/// One segment of a [`RowView`]: cells held as values, or row `i` of a
/// base table, read by position off the table's columns — the table's
/// row itself is never touched for it.
#[derive(Clone, Copy)]
pub enum Seg<'a> {
    Values(&'a [Value]),
    At(&'a TableColumns, usize),
}

impl Seg<'_> {
    #[inline]
    fn width(&self) -> usize {
        match self {
            Seg::Values(vs) => vs.len(),
            Seg::At(columns, _) => columns.arity(),
        }
    }
}

/// The one reader of a segment's cells: `f` of cell `c`, a position's off
/// the table's column `c` ([`bypass_types::Column::with_slot`]). A
/// position alone is a row too: the σ chunk loop runs a kernel term
/// through the interpreter's fast path on `Seg::At(columns, row)`.
impl Columns for Seg<'_> {
    #[inline(always)]
    fn with_cell<T>(&self, c: usize, f: impl FnOnce(&Value) -> T) -> Option<T> {
        match *self {
            Seg::Values(vs) => vs.get(c).map(f),
            Seg::At(columns, i) => columns.get(c).map(|col| col.with_slot(i, f)),
        }
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
    seg: Seg<'a>,
    /// The materialized row this view is all of, if no stage changed it.
    pub(crate) whole: Option<&'a Tuple>,
}

impl<'a> RowView<'a> {
    pub fn new(seg: &'a [Value]) -> RowView<'a> {
        RowView::of_seg(Seg::Values(seg), None)
    }

    /// The view of a whole materialized row.
    pub fn of(t: &'a Tuple) -> RowView<'a> {
        RowView::of_seg(Seg::Values(t.values()), Some(t))
    }

    fn of_seg(seg: Seg<'a>, whole: Option<&'a Tuple>) -> RowView<'a> {
        RowView {
            prev: None,
            base: 0,
            seg,
            whole,
        }
    }

    /// `self ◦ seg`.
    pub fn with<'b>(&'b self, seg: Seg<'b>) -> RowView<'b>
    where
        'a: 'b,
    {
        RowView {
            prev: Some(self),
            base: self.base + self.seg.width(),
            seg,
            whole: None,
        }
    }

    fn arity(&self) -> usize {
        self.base + self.seg.width()
    }
}

impl Columns for RowView<'_> {
    #[inline(always)]
    fn with_cell<T>(&self, i: usize, f: impl FnOnce(&Value) -> T) -> Option<T> {
        let mut v = self;
        while i < v.base {
            v = v.prev?;
        }
        v.seg.with_cell(i - v.base, f)
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
        match (self.prev.map(|p| (p.prev, p.seg)), self.seg) {
            (None, Seg::Values(vs)) => vs.iter().cloned().collect(),
            (Some((None, Seg::Values(a))), Seg::Values(b)) => Tuple::from_pair(a, b),
            // Positions, or three or more segments: cell by cell. A mapped
            // range is exact-size, so this is still one allocation.
            _ => (0..self.arity())
                .map(|i| self.with_cell(i, Value::clone).expect("index below arity"))
                .collect(),
        }
    }
}

/// How a loop hands on row `i` of its evaluated input: a scan's as
/// position `i` in its table's columns, any other relation's as the
/// values its tuple holds — a transient column set would copy a whole
/// column for a loop that reads a few of its cells. Either way the view
/// is all of the row, which leaves whole by refcount.
pub(crate) enum Source<'p> {
    Table(&'p Arc<TableColumns>),
    Rows(Arc<Relation>),
}

impl<'p> Source<'p> {
    /// The evaluated `from`, `rel`, as its loop reads it.
    pub(crate) fn of(from: &'p PhysNode, rel: Arc<Relation>) -> Source<'p> {
        match &from.kind {
            PhysKind::Scan { columns } => Source::Table(columns),
            _ => Source::Rows(rel),
        }
    }

    /// How the loop reads its input by column: a scan hands out its
    /// table's own columns, built on their first read, then shared by
    /// every statement and worker. Any other relation gets a transient
    /// set, built a column at a time as the loop asks, uncharged like
    /// every column, and dropped with the loop.
    pub(crate) fn columns(&self) -> Arc<TableColumns> {
        match self {
            Source::Table(columns) => Arc::clone(columns),
            Source::Rows(rel) => TableColumns::new(rel.clone()),
        }
    }

    /// The rows of the input.
    #[inline]
    pub(crate) fn rows(&self) -> &[Tuple] {
        match self {
            Source::Table(columns) => columns.data().rows(),
            Source::Rows(rel) => rel.rows(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.rows().len()
    }

    /// Row `i`, as the segment a pair appends.
    #[inline(always)]
    pub(crate) fn seg(&self, i: usize) -> Seg<'_> {
        match self {
            Source::Table(columns) => Seg::At(columns, i),
            Source::Rows(rel) => Seg::Values(rel.rows()[i].values()),
        }
    }

    /// Row `i`, as the view a loop's stages see.
    #[inline(always)]
    pub(crate) fn view(&self, i: usize) -> RowView<'_> {
        RowView::of_seg(self.seg(i), Some(&self.rows()[i]))
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
        let vb = va.with(Seg::Values(&b));
        let vc = vb.with(Seg::Values(&c));
        assert_eq!(vc.with_cell(0, Value::clone), Some(Value::Int(1)));
        assert_eq!(vc.with_cell(2, Value::clone), Some(Value::Int(3)));
        assert_eq!(vc.with_cell(3, Value::clone), None);
        assert_eq!(vc.to_tuple(), Tuple::new(ints(&[1, 2, 3])));
        assert_eq!(vb.to_tuple(), Tuple::new(a.clone()));
        assert_eq!(va.to_tuple(), Tuple::new(a.clone()));
        // A view of a whole row hands that row on; widening it does not.
        let t = Tuple::new(a.clone());
        let whole = RowView::of(&t);
        assert!(whole.to_tuple().shares_buffer(&t));
        assert!(whole.with(Seg::Values(&c)).whole.is_none());
    }

    #[test]
    fn a_position_reads_the_tables_columns() {
        use bypass_types::{DataType, Field, Schema};
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("s", DataType::Text),
        ]);
        let rows =
            [(7, "x"), (8, "y")].map(|(i, s)| Tuple::new(vec![Value::Int(i), Value::text(s)]));
        let table = TableColumns::new(Relation::new(schema, rows.to_vec()));
        let left = ints(&[1]);
        let pair = RowView::new(&left);
        let pair = pair.with(Seg::At(&table, 1));
        assert_eq!(pair.with_cell(1, Value::clone), Some(Value::Int(8)));
        assert_eq!(pair.with_cell(2, Value::clone), Some(Value::text("y")));
        assert_eq!(pair.with_cell(3, Value::clone), None);
        assert_eq!(
            pair.to_tuple(),
            Tuple::new(vec![Value::Int(1), Value::Int(8), Value::text("y")])
        );
        // A loop's view of a scanned row is all of that row.
        let scan = PhysNode::scan(table.clone());
        let source = Source::of(&scan, table.data().clone());
        let view = source.view(0);
        assert!(view.to_tuple().shares_buffer(&rows[0]));
        assert_eq!(view.with_cell(1, Value::clone), Some(Value::text("x")));
    }
}
