use std::fmt;
use std::sync::Arc;

use bypass_algebra::BinOp;
use bypass_types::{Error, Result, Truth, Tuple, Value};

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
    /// The nested physical plans directly contained in this expression.
    pub fn subquery_plans(&self) -> Vec<&Arc<PhysNode>> {
        self.subqueries().into_iter().map(|s| s.plan).collect()
    }

    /// The nested query blocks directly contained in this expression.
    pub(crate) fn subqueries(&self) -> Vec<SubqueryRef<'_>> {
        let mut out = Vec::new();
        self.collect_subqueries(&mut out);
        out
    }

    fn collect_subqueries<'a>(&'a self, out: &mut Vec<SubqueryRef<'a>>) {
        match self {
            PhysExpr::Column(_) | PhysExpr::Outer { .. } | PhysExpr::Literal(_) => {}
            PhysExpr::Binary { left, right, .. } => {
                left.collect_subqueries(out);
                right.collect_subqueries(out);
            }
            PhysExpr::Not(e) | PhysExpr::Neg(e) => e.collect_subqueries(out),
            PhysExpr::IsNull { expr, .. } => expr.collect_subqueries(out),
            PhysExpr::Like { expr, pattern, .. } => {
                expr.collect_subqueries(out);
                pattern.collect_subqueries(out);
            }
            PhysExpr::InList { expr, list, .. } => {
                expr.collect_subqueries(out);
                for e in list {
                    e.collect_subqueries(out);
                }
            }
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
            } => out.push(SubqueryRef {
                plan,
                correlated: *correlated,
                outer_keys,
            }),
            PhysExpr::InSubquery {
                expr,
                plan,
                correlated,
                outer_keys,
                ..
            }
            | PhysExpr::QuantifiedCmp {
                expr,
                plan,
                correlated,
                outer_keys,
                ..
            } => {
                expr.collect_subqueries(out);
                out.push(SubqueryRef {
                    plan,
                    correlated: *correlated,
                    outer_keys,
                });
            }
        }
    }

    /// Does this expression (transitively, excluding subquery plans)
    /// contain a subquery? Used by the planner to order disjuncts.
    pub fn contains_subquery(&self) -> bool {
        match self {
            PhysExpr::Subquery { .. }
            | PhysExpr::Exists { .. }
            | PhysExpr::InSubquery { .. }
            | PhysExpr::QuantifiedCmp { .. } => true,
            PhysExpr::Column(_) | PhysExpr::Outer { .. } | PhysExpr::Literal(_) => false,
            PhysExpr::Binary { left, right, .. } => {
                left.contains_subquery() || right.contains_subquery()
            }
            PhysExpr::Not(e) | PhysExpr::Neg(e) => e.contains_subquery(),
            PhysExpr::IsNull { expr, .. } => expr.contains_subquery(),
            PhysExpr::Like { expr, pattern, .. } => {
                expr.contains_subquery() || pattern.contains_subquery()
            }
            PhysExpr::InList { expr, list, .. } => {
                expr.contains_subquery() || list.iter().any(|e| e.contains_subquery())
            }
        }
    }
}

/// SQL truth value of an evaluated predicate result.
pub fn value_truth(v: &Value) -> Truth {
    match v {
        Value::Bool(true) => Truth::True,
        Value::Bool(false) => Truth::False,
        Value::Null => Truth::Unknown,
        // Non-boolean, non-null predicate results are a planner bug; be
        // conservative and treat them as unknown.
        _ => Truth::Unknown,
    }
}

/// Evaluate a binary operator over two values (both already computed).
pub(crate) fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    Ok(match op {
        And => value_truth(l).and(value_truth(r)).to_value(),
        Or => value_truth(l).or(value_truth(r)).to_value(),
        Eq => l.sql_eq(r).to_value(),
        Neq => l.sql_eq(r).not().to_value(),
        Lt => cmp_value(l, r, |o| o == std::cmp::Ordering::Less),
        LtEq => cmp_value(l, r, |o| o != std::cmp::Ordering::Greater),
        Gt => cmp_value(l, r, |o| o == std::cmp::Ordering::Greater),
        GtEq => cmp_value(l, r, |o| o != std::cmp::Ordering::Less),
        Add => l.add(r)?,
        Sub => l.sub(r)?,
        Mul => l.mul(r)?,
        Div => l.div(r)?,
        NullSafeAdd => match (l.is_null(), r.is_null()) {
            (true, true) => Value::Null,
            (true, false) => r.clone(),
            (false, true) => l.clone(),
            (false, false) => l.add(r)?,
        },
        Least => match (l.is_null(), r.is_null()) {
            (true, true) => Value::Null,
            (true, false) => r.clone(),
            (false, true) => l.clone(),
            (false, false) => match l.sql_cmp(r) {
                Some(std::cmp::Ordering::Greater) => r.clone(),
                Some(_) => l.clone(),
                None => {
                    return Err(Error::type_err(format!(
                        "least: incomparable values {l} and {r}"
                    )))
                }
            },
        },
        Greatest => match (l.is_null(), r.is_null()) {
            (true, true) => Value::Null,
            (true, false) => r.clone(),
            (false, true) => l.clone(),
            (false, false) => match l.sql_cmp(r) {
                Some(std::cmp::Ordering::Less) => r.clone(),
                Some(_) => l.clone(),
                None => {
                    return Err(Error::type_err(format!(
                        "greatest: incomparable values {l} and {r}"
                    )))
                }
            },
        },
    })
}

fn cmp_value(l: &Value, r: &Value, pred: impl Fn(std::cmp::Ordering) -> bool) -> Value {
    match l.sql_cmp(r) {
        None => Value::Null,
        Some(o) => Value::Bool(pred(o)),
    }
}

/// Three-valued membership test for IN-lists and IN-subqueries: TRUE if
/// any element equals, otherwise UNKNOWN if any comparison was unknown,
/// otherwise FALSE.
pub(crate) fn in_membership<'a>(
    needle: &Value,
    haystack: impl Iterator<Item = &'a Value>,
) -> Truth {
    let mut saw_unknown = false;
    for v in haystack {
        match needle.sql_eq(v) {
            Truth::True => return Truth::True,
            Truth::Unknown => saw_unknown = true,
            Truth::False => {}
        }
    }
    if saw_unknown {
        Truth::Unknown
    } else {
        Truth::False
    }
}

/// Read an [`PhysExpr::Outer`] reference from the binding stack.
/// `depth` 1 is the innermost (most recently pushed) outer tuple.
pub(crate) fn outer_value(stack: &[Tuple], depth: usize, index: usize) -> Result<Value> {
    if depth == 0 || depth > stack.len() {
        return Err(Error::execution(format!(
            "outer reference depth {depth} exceeds binding stack ({} entries)",
            stack.len()
        )));
    }
    let t = &stack[stack.len() - depth];
    t.get(index)
        .cloned()
        .ok_or_else(|| Error::execution(format!("outer reference index {index} out of range")))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_three_valued_logic() {
        let t = Value::Bool(true);
        let u = Value::Null;
        let f = Value::Bool(false);
        assert_eq!(eval_binop(BinOp::Or, &t, &u).unwrap(), Value::Bool(true));
        assert_eq!(eval_binop(BinOp::Or, &f, &u).unwrap(), Value::Null);
        assert_eq!(eval_binop(BinOp::And, &f, &u).unwrap(), Value::Bool(false));
        assert_eq!(eval_binop(BinOp::And, &t, &u).unwrap(), Value::Null);
    }

    #[test]
    fn binop_comparisons_with_null() {
        assert_eq!(
            eval_binop(BinOp::Lt, &Value::Int(1), &Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binop(BinOp::Lt, &Value::Null, &Value::Int(2)).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_binop(BinOp::Neq, &Value::Int(1), &Value::Int(1)).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_binop(BinOp::GtEq, &Value::Int(3), &Value::Int(3)).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn combining_ops_treat_null_as_identity() {
        let n = Value::Null;
        let five = Value::Int(5);
        let three = Value::Int(3);
        assert_eq!(eval_binop(BinOp::NullSafeAdd, &n, &five).unwrap(), five);
        assert_eq!(eval_binop(BinOp::NullSafeAdd, &five, &n).unwrap(), five);
        assert_eq!(eval_binop(BinOp::NullSafeAdd, &n, &n).unwrap(), n);
        assert_eq!(
            eval_binop(BinOp::NullSafeAdd, &five, &three).unwrap(),
            Value::Int(8)
        );
        assert_eq!(eval_binop(BinOp::Least, &five, &three).unwrap(), three);
        assert_eq!(eval_binop(BinOp::Least, &n, &three).unwrap(), three);
        assert_eq!(eval_binop(BinOp::Greatest, &five, &n).unwrap(), five);
        assert_eq!(eval_binop(BinOp::Greatest, &five, &three).unwrap(), five);
    }

    #[test]
    fn in_membership_three_valued() {
        let vals = [Value::Int(1), Value::Int(2)];
        assert_eq!(in_membership(&Value::Int(1), vals.iter()), Truth::True);
        assert_eq!(in_membership(&Value::Int(9), vals.iter()), Truth::False);
        let with_null = [Value::Int(1), Value::Null];
        assert_eq!(
            in_membership(&Value::Int(9), with_null.iter()),
            Truth::Unknown
        );
        assert_eq!(in_membership(&Value::Int(1), with_null.iter()), Truth::True);
        assert_eq!(in_membership(&Value::Null, vals.iter()), Truth::Unknown);
        assert_eq!(in_membership(&Value::Int(1), [].iter()), Truth::False);
    }

    #[test]
    fn outer_stack_addressing() {
        let t1 = Tuple::new(vec![Value::Int(10)]);
        let t2 = Tuple::new(vec![Value::Int(20)]);
        let stack = vec![t1, t2];
        // depth 1 = innermost (t2).
        assert_eq!(outer_value(&stack, 1, 0).unwrap(), Value::Int(20));
        assert_eq!(outer_value(&stack, 2, 0).unwrap(), Value::Int(10));
        assert!(outer_value(&stack, 3, 0).is_err());
        assert!(outer_value(&stack, 0, 0).is_err());
        assert!(outer_value(&stack, 1, 5).is_err());
    }

    #[test]
    fn truth_of_values() {
        assert_eq!(value_truth(&Value::Bool(true)), Truth::True);
        assert_eq!(value_truth(&Value::Bool(false)), Truth::False);
        assert_eq!(value_truth(&Value::Null), Truth::Unknown);
        assert_eq!(value_truth(&Value::Int(1)), Truth::Unknown);
    }
}
