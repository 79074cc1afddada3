use std::fmt;
use std::sync::Arc;

use bypass_types::{DataType, Schema, Value};

use crate::plan::LogicalPlan;

/// A (possibly qualified) column reference, the unit of name resolution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    pub qualifier: Option<String>,
    pub name: String,
}

impl ColumnRef {
    pub fn new(qualifier: Option<impl Into<String>>, name: impl Into<String>) -> ColumnRef {
        ColumnRef {
            qualifier: qualifier.map(Into::into),
            name: name.into(),
        }
    }

    /// Does `schema` contain a matching field?
    pub fn resolves_in(&self, schema: &Schema) -> bool {
        schema.find(self.qualifier.as_deref(), &self.name).is_some()
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Binary operators of the scalar language.
///
/// `NullSafeAdd`, `Least` and `Greatest` are the *combining functions*
/// `f_O` of decomposable aggregates (Section 3.3): they treat `NULL` as
/// "no partial result" so that `f_O(f_I(∅), x) = x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Neq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    /// `a + b`, but `NULL` acts as the identity (both `NULL` → `NULL`).
    NullSafeAdd,
    /// Binary minimum ignoring `NULL`s.
    Least,
    /// Binary maximum ignoring `NULL`s.
    Greatest,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// Mirror a comparison (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "OR",
            BinOp::And => "AND",
            BinOp::Eq => "=",
            BinOp::Neq => "!=",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::NullSafeAdd => "+ₙ",
            BinOp::Least => "least",
            BinOp::Greatest => "greatest",
        }
    }
}

/// A scalar (or boolean) expression over named columns.
///
/// Nested algebraic expressions appear as [`Scalar::Subquery`] (scalar
/// subqueries), [`Scalar::Exists`] and [`Scalar::InSubquery`] (quantified
/// table subqueries). Free column references inside a subquery plan that
/// do not resolve against the subquery's own scope are *correlation*
/// references into the directly enclosing block.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    Column(ColumnRef),
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<Scalar>,
        right: Box<Scalar>,
    },
    Not(Box<Scalar>),
    Neg(Box<Scalar>),
    IsNull {
        negated: bool,
        expr: Box<Scalar>,
    },
    Like {
        negated: bool,
        expr: Box<Scalar>,
        pattern: Box<Scalar>,
    },
    InList {
        negated: bool,
        expr: Box<Scalar>,
        list: Vec<Scalar>,
    },
    /// A scalar subquery: evaluates the plan, expects at most one row of
    /// one column; an empty result is `NULL`.
    Subquery(Arc<LogicalPlan>),
    /// `[NOT] EXISTS (plan)`.
    Exists {
        negated: bool,
        plan: Arc<LogicalPlan>,
    },
    /// `expr [NOT] IN (plan)` over the plan's single output column.
    InSubquery {
        negated: bool,
        expr: Box<Scalar>,
        plan: Arc<LogicalPlan>,
    },
    /// `expr θ ALL (plan)` / `expr θ ANY (plan)` over the plan's single
    /// output column (Section 6.2, outlook item 3).
    QuantifiedCmp {
        op: BinOp,
        all: bool,
        expr: Box<Scalar>,
        plan: Arc<LogicalPlan>,
    },
}

impl Scalar {
    // ----- constructors ------------------------------------------------

    pub fn col(name: impl Into<String>) -> Scalar {
        Scalar::Column(ColumnRef::new(None::<String>, name))
    }

    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Scalar {
        Scalar::Column(ColumnRef::new(Some(qualifier), name))
    }

    pub fn lit(v: impl Into<Value>) -> Scalar {
        Scalar::Literal(v.into())
    }

    pub fn binary(op: BinOp, left: Scalar, right: Scalar) -> Scalar {
        Scalar::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn eq(self, other: Scalar) -> Scalar {
        Scalar::binary(BinOp::Eq, self, other)
    }

    pub fn gt(self, other: Scalar) -> Scalar {
        Scalar::binary(BinOp::Gt, self, other)
    }

    pub fn lt(self, other: Scalar) -> Scalar {
        Scalar::binary(BinOp::Lt, self, other)
    }

    pub fn and(self, other: Scalar) -> Scalar {
        Scalar::binary(BinOp::And, self, other)
    }

    pub fn or(self, other: Scalar) -> Scalar {
        Scalar::binary(BinOp::Or, self, other)
    }

    #[allow(clippy::should_implement_trait)] // builder-style 3VL negation
    pub fn not(self) -> Scalar {
        Scalar::Not(Box::new(self))
    }

    /// Fold a non-empty list of predicates into a conjunction.
    pub fn conjunction(mut preds: Vec<Scalar>) -> Option<Scalar> {
        let first = if preds.is_empty() {
            return None;
        } else {
            preds.remove(0)
        };
        Some(preds.into_iter().fold(first, |acc, p| acc.and(p)))
    }

    /// Fold a non-empty list of predicates into a disjunction.
    pub fn disjunction(mut preds: Vec<Scalar>) -> Option<Scalar> {
        let first = if preds.is_empty() {
            return None;
        } else {
            preds.remove(0)
        };
        Some(preds.into_iter().fold(first, |acc, p| acc.or(p)))
    }

    // ----- structure ----------------------------------------------------

    /// Flatten a conjunction tree into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&Scalar> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Scalar, out: &mut Vec<&'a Scalar>) {
            match e {
                Scalar::Binary {
                    op: BinOp::And,
                    left,
                    right,
                } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Flatten a disjunction tree into its disjuncts.
    pub fn disjuncts(&self) -> Vec<&Scalar> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Scalar, out: &mut Vec<&'a Scalar>) {
            match e {
                Scalar::Binary {
                    op: BinOp::Or,
                    left,
                    right,
                } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Pre-order visit of this expression tree. Does **not** descend into
    /// subquery plans; use [`Scalar::subquery_plans`] for those.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Scalar)) {
        f(self);
        match self {
            Scalar::Column(_)
            | Scalar::Literal(_)
            | Scalar::Subquery(_)
            | Scalar::Exists { .. } => {}
            Scalar::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Scalar::Not(e) | Scalar::Neg(e) => e.walk(f),
            Scalar::IsNull { expr, .. } => expr.walk(f),
            Scalar::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Scalar::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Scalar::InSubquery { expr, .. } => expr.walk(f),
            Scalar::QuantifiedCmp { expr, .. } => expr.walk(f),
        }
    }

    /// This node with `f` applied to each direct child expression;
    /// nested plans are kept as they are. The one match that rebuilds a
    /// `Scalar` variant by variant — every expression rewrite recurses
    /// through it.
    pub fn map_children(&self, f: &mut impl FnMut(&Scalar) -> Scalar) -> Scalar {
        match self {
            Scalar::Column(_)
            | Scalar::Literal(_)
            | Scalar::Subquery(_)
            | Scalar::Exists { .. } => self.clone(),
            Scalar::Binary { op, left, right } => Scalar::Binary {
                op: *op,
                left: Box::new(f(left)),
                right: Box::new(f(right)),
            },
            Scalar::Not(e) => Scalar::Not(Box::new(f(e))),
            Scalar::Neg(e) => Scalar::Neg(Box::new(f(e))),
            Scalar::IsNull { negated, expr } => Scalar::IsNull {
                negated: *negated,
                expr: Box::new(f(expr)),
            },
            Scalar::Like {
                negated,
                expr,
                pattern,
            } => Scalar::Like {
                negated: *negated,
                expr: Box::new(f(expr)),
                pattern: Box::new(f(pattern)),
            },
            Scalar::InList {
                negated,
                expr,
                list,
            } => Scalar::InList {
                negated: *negated,
                expr: Box::new(f(expr)),
                list: list.iter().map(f).collect(),
            },
            Scalar::InSubquery {
                negated,
                expr,
                plan,
            } => Scalar::InSubquery {
                negated: *negated,
                expr: Box::new(f(expr)),
                plan: plan.clone(),
            },
            Scalar::QuantifiedCmp {
                op,
                all,
                expr,
                plan,
            } => Scalar::QuantifiedCmp {
                op: *op,
                all: *all,
                expr: Box::new(f(expr)),
                plan: plan.clone(),
            },
        }
    }

    /// This expression with `f` applied to every nested plan, left to
    /// right (the operand of `IN` / `θ ALL` before the plan it is
    /// compared with).
    pub fn map_plans(&self, f: &mut impl FnMut(&Arc<LogicalPlan>) -> Arc<LogicalPlan>) -> Scalar {
        let mut out = self.map_children(&mut |e| e.map_plans(f));
        if let Scalar::Subquery(plan)
        | Scalar::Exists { plan, .. }
        | Scalar::InSubquery { plan, .. }
        | Scalar::QuantifiedCmp { plan, .. } = &mut out
        {
            *plan = f(plan);
        }
        out
    }

    /// All nested plans directly contained in this expression tree.
    pub fn subquery_plans(&self) -> Vec<&Arc<LogicalPlan>> {
        let mut out = Vec::new();
        self.walk(&mut |e| match e {
            Scalar::Subquery(p) => out.push(p),
            Scalar::Exists { plan, .. } => out.push(plan),
            Scalar::InSubquery { plan, .. } => out.push(plan),
            Scalar::QuantifiedCmp { plan, .. } => out.push(plan),
            _ => {}
        });
        out
    }

    pub fn contains_subquery(&self) -> bool {
        !self.subquery_plans().is_empty()
    }

    /// Column references of this expression that do **not** resolve in
    /// `schema`. Subquery plans contribute their own free references
    /// (i.e. correlation into scopes above `schema`).
    pub fn free_refs(&self, schema: &Schema) -> Vec<ColumnRef> {
        let mut out = Vec::new();
        self.collect_free_refs(schema, &mut out);
        out
    }

    fn collect_free_refs(&self, schema: &Schema, out: &mut Vec<ColumnRef>) {
        self.walk(&mut |e| match e {
            Scalar::Column(c) if !c.resolves_in(schema) && !out.contains(c) => {
                out.push(c.clone());
            }
            Scalar::Column(_) => {}
            Scalar::Subquery(p)
            | Scalar::Exists { plan: p, .. }
            | Scalar::InSubquery { plan: p, .. }
            | Scalar::QuantifiedCmp { plan: p, .. } => {
                // Free refs of the nested plan that the *current* scope
                // cannot bind either remain free here.
                for c in p.free_refs() {
                    if !c.resolves_in(schema) && !out.contains(&c) {
                        out.push(c);
                    }
                }
            }
            _ => {}
        });
    }

    /// All column references in this expression (not descending into
    /// subqueries).
    pub fn column_refs(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Scalar::Column(c) = e {
                out.push(c);
            }
        });
        out
    }

    /// Result type of this expression against `schema`. Unresolvable
    /// columns are typed `Unknown` (they may be outer references).
    pub fn data_type(&self, schema: &Schema) -> DataType {
        match self {
            Scalar::Column(c) => schema
                .find(c.qualifier.as_deref(), &c.name)
                .map(|i| schema.field(i).data_type())
                .unwrap_or(DataType::Unknown),
            Scalar::Literal(v) => v.data_type(),
            Scalar::Binary { op, left, right } => match op {
                BinOp::And | BinOp::Or => DataType::Bool,
                op if op.is_comparison() => DataType::Bool,
                BinOp::Div => DataType::Float.min_unify(left.data_type(schema)),
                _ => left
                    .data_type(schema)
                    .unify(right.data_type(schema))
                    .unwrap_or(DataType::Unknown),
            },
            Scalar::Not(_)
            | Scalar::IsNull { .. }
            | Scalar::Like { .. }
            | Scalar::InList { .. }
            | Scalar::Exists { .. }
            | Scalar::InSubquery { .. }
            | Scalar::QuantifiedCmp { .. } => DataType::Bool,
            Scalar::Neg(e) => e.data_type(schema),
            Scalar::Subquery(p) => {
                let s = p.schema();
                if s.arity() == 1 {
                    s.field(0).data_type()
                } else {
                    DataType::Unknown
                }
            }
        }
    }
}

/// Small helper: `Div` always produces Float except when the operand type
/// is unknown.
trait MinUnify {
    fn min_unify(self, other: DataType) -> DataType;
}

impl MinUnify for DataType {
    fn min_unify(self, other: DataType) -> DataType {
        if other == DataType::Unknown {
            DataType::Unknown
        } else {
            self
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Column(c) => write!(f, "{c}"),
            Scalar::Literal(v) => match v {
                Value::Text(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Scalar::Binary { op, left, right } => {
                if matches!(op, BinOp::Least | BinOp::Greatest | BinOp::NullSafeAdd) {
                    write!(f, "{}({left}, {right})", op.symbol())
                } else {
                    write!(f, "({left} {} {right})", op.symbol())
                }
            }
            Scalar::Not(e) => write!(f, "¬({e})"),
            Scalar::Neg(e) => write!(f, "-({e})"),
            Scalar::IsNull { negated, expr } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Scalar::Like {
                negated,
                expr,
                pattern,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            Scalar::InList {
                negated,
                expr,
                list,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("))")
            }
            Scalar::Subquery(_) => f.write_str("⟨subquery⟩"),
            Scalar::Exists { negated, .. } => {
                write!(f, "{}EXISTS⟨subquery⟩", if *negated { "¬" } else { "" })
            }
            Scalar::InSubquery { negated, expr, .. } => {
                write!(
                    f,
                    "({expr} {}IN ⟨subquery⟩)",
                    if *negated { "NOT " } else { "" }
                )
            }
            Scalar::QuantifiedCmp { op, all, expr, .. } => {
                write!(
                    f,
                    "({expr} {} {} ⟨subquery⟩)",
                    op.symbol(),
                    if *all { "ALL" } else { "ANY" }
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_types::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::qualified("r", "a1", DataType::Int),
            Field::qualified("r", "a2", DataType::Float),
            Field::qualified("r", "t", DataType::Text),
        ])
    }

    #[test]
    fn conjunct_disjunct_flattening() {
        let e = Scalar::col("a")
            .eq(Scalar::lit(1i64))
            .and(Scalar::col("b").eq(Scalar::lit(2i64)))
            .and(Scalar::col("c").eq(Scalar::lit(3i64)));
        assert_eq!(e.conjuncts().len(), 3);
        assert_eq!(e.disjuncts().len(), 1);

        let d = Scalar::col("a")
            .eq(Scalar::lit(1i64))
            .or(Scalar::col("b").eq(Scalar::lit(2i64)));
        assert_eq!(d.disjuncts().len(), 2);
    }

    #[test]
    fn conjunction_builder() {
        assert_eq!(Scalar::conjunction(vec![]), None);
        let one = Scalar::conjunction(vec![Scalar::col("a")]).unwrap();
        assert_eq!(one, Scalar::col("a"));
        let two = Scalar::conjunction(vec![Scalar::col("a"), Scalar::col("b")]).unwrap();
        assert_eq!(two.conjuncts().len(), 2);
    }

    #[test]
    fn free_refs_against_schema() {
        let e = Scalar::qcol("r", "a1")
            .eq(Scalar::col("b2"))
            .and(Scalar::col("a2").gt(Scalar::lit(0i64)));
        let free = e.free_refs(&schema());
        assert_eq!(free.len(), 1);
        assert_eq!(free[0].name, "b2");
    }

    #[test]
    fn data_types() {
        let s = schema();
        assert_eq!(Scalar::qcol("r", "a1").data_type(&s), DataType::Int);
        assert_eq!(
            Scalar::qcol("r", "a1").eq(Scalar::lit(1i64)).data_type(&s),
            DataType::Bool
        );
        assert_eq!(
            Scalar::binary(BinOp::Add, Scalar::qcol("r", "a1"), Scalar::qcol("r", "a2"))
                .data_type(&s),
            DataType::Float
        );
        assert_eq!(
            Scalar::binary(BinOp::Div, Scalar::qcol("r", "a1"), Scalar::lit(2i64)).data_type(&s),
            DataType::Float
        );
        // Unresolvable → Unknown (outer reference).
        assert_eq!(Scalar::col("zz").data_type(&s), DataType::Unknown);
    }

    #[test]
    fn flip_comparisons() {
        assert_eq!(BinOp::Lt.flip(), BinOp::Gt);
        assert_eq!(BinOp::GtEq.flip(), BinOp::LtEq);
        assert_eq!(BinOp::Eq.flip(), BinOp::Eq);
        assert_eq!(BinOp::Neq.flip(), BinOp::Neq);
    }

    #[test]
    fn display() {
        let e = Scalar::qcol("r", "a1")
            .eq(Scalar::lit(1i64))
            .or(Scalar::col("a4").gt(Scalar::lit(1500i64)));
        assert_eq!(e.to_string(), "((r.a1 = 1) OR (a4 > 1500))");
        let l = Scalar::binary(BinOp::Least, Scalar::col("g1"), Scalar::col("g2"));
        assert_eq!(l.to_string(), "least(g1, g2)");
    }
}
