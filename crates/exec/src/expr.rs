use std::fmt;
use std::sync::Arc;

use bypass_algebra::BinOp;
use bypass_types::Value;

use crate::node::PhysNode;

/// A fully resolved physical expression: column references are positional
/// and correlation is explicit ([`PhysExpr::Outer`]).
#[derive(Debug, Clone)]
pub enum PhysExpr {
    /// Column of the current input tuple.
    Column(usize),
    /// Correlation reference: column `index` of the tuple `depth` levels
    /// up the outer-binding stack (1 = directly enclosing block — the
    /// only depth the paper's "direct correlation" limitation produces).
    Outer {
        depth: usize,
        index: usize,
    },
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<PhysExpr>,
        right: Box<PhysExpr>,
    },
    Not(Box<PhysExpr>),
    Neg(Box<PhysExpr>),
    IsNull {
        negated: bool,
        expr: Box<PhysExpr>,
    },
    Like {
        negated: bool,
        expr: Box<PhysExpr>,
        pattern: Box<PhysExpr>,
    },
    InList {
        negated: bool,
        expr: Box<PhysExpr>,
        list: Vec<PhysExpr>,
    },
    /// A scalar subquery. `outer_keys` are the columns of the *current*
    /// tuple the subplan is correlated on (used as memo key when
    /// correlation memoization is enabled); `correlated == false` means
    /// the subplan can be evaluated once and cached.
    Subquery {
        plan: Arc<PhysNode>,
        correlated: bool,
        outer_keys: Vec<usize>,
    },
    Exists {
        negated: bool,
        plan: Arc<PhysNode>,
        correlated: bool,
        outer_keys: Vec<usize>,
    },
    InSubquery {
        negated: bool,
        expr: Box<PhysExpr>,
        plan: Arc<PhysNode>,
        correlated: bool,
        outer_keys: Vec<usize>,
    },
    /// `expr θ ALL/ANY (plan)` over the plan's single output column,
    /// with proper three-valued semantics.
    QuantifiedCmp {
        op: BinOp,
        all: bool,
        expr: Box<PhysExpr>,
        plan: Arc<PhysNode>,
        correlated: bool,
        outer_keys: Vec<usize>,
    },
}

/// One nested query block inside an expression: its plan and what the
/// executor's memo options key on.
pub(crate) struct SubqueryRef<'a> {
    pub(crate) plan: &'a Arc<PhysNode>,
    pub(crate) correlated: bool,
    pub(crate) outer_keys: &'a [usize],
}

impl PhysExpr {
    /// The direct child *expressions*, left to right. Nested plans are
    /// not expressions: see [`Self::subquery_plans`].
    pub fn children(&self) -> impl Iterator<Item = &PhysExpr> {
        let (first, second, rest): (Option<&PhysExpr>, Option<&PhysExpr>, &[PhysExpr]) = match self
        {
            PhysExpr::Column(_)
            | PhysExpr::Outer { .. }
            | PhysExpr::Literal(_)
            | PhysExpr::Subquery { .. }
            | PhysExpr::Exists { .. } => (None, None, &[]),
            PhysExpr::Binary { left, right, .. } => (Some(left), Some(right), &[]),
            PhysExpr::Like { expr, pattern, .. } => (Some(expr), Some(pattern), &[]),
            PhysExpr::Not(e)
            | PhysExpr::Neg(e)
            | PhysExpr::IsNull { expr: e, .. }
            | PhysExpr::InSubquery { expr: e, .. }
            | PhysExpr::QuantifiedCmp { expr: e, .. } => (Some(e), None, &[]),
            PhysExpr::InList { expr, list, .. } => (Some(expr), None, list),
        };
        first.into_iter().chain(second).chain(rest)
    }

    /// The nested query block this node itself is, if it is one.
    pub(crate) fn own_subquery(&self) -> Option<SubqueryRef<'_>> {
        match self {
            PhysExpr::Subquery {
                plan,
                correlated,
                outer_keys,
            }
            | PhysExpr::Exists {
                plan,
                correlated,
                outer_keys,
                ..
            }
            | PhysExpr::InSubquery {
                plan,
                correlated,
                outer_keys,
                ..
            }
            | PhysExpr::QuantifiedCmp {
                plan,
                correlated,
                outer_keys,
                ..
            } => Some(SubqueryRef {
                plan,
                correlated: *correlated,
                outer_keys,
            }),
            _ => None,
        }
    }

    /// The nested physical plans directly contained in this expression.
    pub fn subquery_plans(&self) -> Vec<&Arc<PhysNode>> {
        self.subqueries().into_iter().map(|s| s.plan).collect()
    }

    /// The nested query blocks directly contained in this expression,
    /// operands before the block they are compared with.
    pub(crate) fn subqueries(&self) -> Vec<SubqueryRef<'_>> {
        fn collect<'a>(e: &'a PhysExpr, out: &mut Vec<SubqueryRef<'a>>) {
            for c in e.children() {
                collect(c, out);
            }
            out.extend(e.own_subquery());
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out
    }

    /// This expression read through a `Pick` of `cols`: column `c` is
    /// column `cols[c]`. `None` beyond comparisons, their negations and
    /// NULL tests of columns, literals and outer references — for a
    /// subquery, whose correlation keys are columns too, among them.
    pub(crate) fn through(&self, cols: &[usize]) -> Option<PhysExpr> {
        let at = |e: &PhysExpr| e.through(cols).map(Box::new);
        Some(match self {
            PhysExpr::Column(c) => PhysExpr::Column(cols[*c]),
            PhysExpr::Outer { .. } | PhysExpr::Literal(_) => self.clone(),
            PhysExpr::Binary { op, left, right } => PhysExpr::Binary {
                op: *op,
                left: at(left)?,
                right: at(right)?,
            },
            PhysExpr::Not(e) => PhysExpr::Not(at(e)?),
            PhysExpr::Neg(e) => PhysExpr::Neg(at(e)?),
            PhysExpr::IsNull { negated, expr } => PhysExpr::IsNull {
                negated: *negated,
                expr: at(expr)?,
            },
            _ => return None,
        })
    }

    /// Does this expression (transitively, excluding subquery plans)
    /// contain a subquery? Used by the planner to order disjuncts.
    pub fn contains_subquery(&self) -> bool {
        self.own_subquery().is_some() || self.children().any(PhysExpr::contains_subquery)
    }
}

/// If every projection expression is a plain column reference, the
/// column indices; `None` as soon as anything needs real evaluation.
pub(crate) fn column_only(exprs: &[PhysExpr]) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|e| match e {
            PhysExpr::Column(i) => Some(*i),
            _ => None,
        })
        .collect()
}

/// Is `exprs` the projection `#0, #1, …` of all `arity` input columns —
/// a rename, which the planner compiles to no stage?
pub(crate) fn identity_projection(exprs: &[PhysExpr], arity: usize) -> bool {
    exprs.len() == arity
        && exprs
            .iter()
            .enumerate()
            .all(|(i, e)| matches!(e, PhysExpr::Column(c) if *c == i))
}

impl fmt::Display for PhysExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysExpr::Column(i) => write!(f, "#{i}"),
            PhysExpr::Outer { depth, index } => write!(f, "outer({depth}, #{index})"),
            PhysExpr::Literal(v) => write!(f, "{v}"),
            PhysExpr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            PhysExpr::Not(e) => write!(f, "¬({e})"),
            PhysExpr::Neg(e) => write!(f, "-({e})"),
            PhysExpr::IsNull { negated, expr } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            PhysExpr::Like {
                negated,
                expr,
                pattern,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            PhysExpr::InList { expr, list, .. } => {
                write!(f, "({expr} IN [{} items])", list.len())
            }
            PhysExpr::Subquery { correlated, .. } => {
                write!(f, "⟨subquery{}⟩", if *correlated { " corr" } else { "" })
            }
            PhysExpr::Exists { negated, .. } => {
                write!(f, "{}EXISTS⟨subquery⟩", if *negated { "¬" } else { "" })
            }
            PhysExpr::InSubquery { expr, .. } => write!(f, "({expr} IN ⟨subquery⟩)"),
            PhysExpr::QuantifiedCmp { op, all, expr, .. } => write!(
                f,
                "({expr} {} {} ⟨subquery⟩)",
                op.symbol(),
                if *all { "ALL" } else { "ANY" }
            ),
        }
    }
}
