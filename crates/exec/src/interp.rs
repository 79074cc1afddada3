//! The expression interpreter: what a [`PhysExpr`] evaluates to over a
//! row, and the one place that knows the **simple-predicate class**.
//!
//! A predicate is *simple* when it is made of AND / OR / NOT / IS NULL
//! and the six comparisons over column, outer and literal operands.
//! Evaluating one borrows its operands, allocates nothing, cannot fail
//! and never touches the governor, which is what two callers rely on:
//!
//! * [`ExecContext::eval_truth`] tries the borrow-only
//!   [`ExecContext::truth_fast`] before the general
//!   [`ExecContext::eval_expr`] — the canonical plans of Fig. 7
//!   evaluate tens of millions of such predicates per query;
//! * the σ/σ± chunk loop runs a chain's *kernel terms* — the terms
//!   [`is_simple`] admits — column-wise through the same `truth_fast`
//!   over a lane of the input's columns (`vector.rs`), so kernel and
//!   row evaluation are one function, not two kept equal by hand.
//!
//! Every comparison, whichever route reaches it, is [`ord_truth`] of how
//! its operands compare ([`cmp_truth`] for two values).
//!
//! Nested query blocks are evaluated here too: per outer row the
//! subquery's physical plan runs with the row pushed onto the binding
//! stack (the paper's nested-loop evaluation), behind the two memo
//! caches of [`crate::ExecOptions`].

use std::cmp::Ordering;
use std::sync::Arc;

use bypass_algebra::BinOp;
use bypass_types::{tuple_bytes, Error, Relation, Result, Truth, Tuple, Value, SHARED_ROW_BYTES};

use crate::eval::ExecContext;
use crate::expr::{PhysExpr, SubqueryRef};
use crate::node::PhysNode;
use crate::row::{Columns, Row};

/// Amortized per-entry overhead of a memo-cache insertion (hash-map
/// slot + `Arc` handle + counters).
const MEMO_ENTRY_BYTES: u64 = 64;

// ---------------------------------------------------------------------------
// Values: truth, comparison, the binary operators.
// ---------------------------------------------------------------------------

/// SQL truth value of an evaluated predicate result.
pub fn value_truth(v: &Value) -> Truth {
    match v {
        Value::Bool(true) => Truth::True,
        Value::Bool(false) => Truth::False,
        Value::Null => Truth::Unknown,
        // Non-boolean, non-null predicate results are a planner bug
        // (the translator rejects them); be conservative and treat
        // them as unknown.
        _ => Truth::Unknown,
    }
}

/// Truth of a comparison whose operands compare as `ord` (`None`:
/// incomparable, or one of them NULL) — the only mapping of the six
/// comparison operators onto [`Ordering`]: [`cmp_truth`] over values and
/// the typed column loops of the chunked σ all come here.
#[inline]
pub(crate) fn ord_truth(op: BinOp, ord: Option<Ordering>) -> Truth {
    let Some(o) = ord else {
        return Truth::Unknown;
    };
    Truth::from_bool(match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::Neq => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::LtEq => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::GtEq => o != Ordering::Less,
        _ => unreachable!("{} is not a comparison", op.symbol()),
    })
}

/// [`ord_truth`] of `op`, tabulated once: the typed column loops of the
/// chunked σ look a lane's truth up instead of matching `op` per lane.
#[inline]
pub(crate) fn ord_lookup(op: BinOp) -> impl Fn(Option<Ordering>) -> Truth + Copy {
    let table =
        [Ordering::Less, Ordering::Equal, Ordering::Greater].map(|o| ord_truth(op, Some(o)));
    move |ord| ord.map_or(Truth::Unknown, |o| table[(o as i8 + 1) as usize])
}

/// Truth of `l ⟨op⟩ r` for one of the six comparison operators:
/// [`eval_binop`], the row fast path and the `Value` column loops of the
/// chunked σ.
#[inline]
pub(crate) fn cmp_truth(op: BinOp, l: &Value, r: &Value) -> Truth {
    ord_truth(op, l.sql_cmp(r))
}

/// Evaluate a binary operator over two values (both already computed).
pub(crate) fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    // Least/Greatest: NULL is the identity, `keep_left` picks among two
    // comparable values.
    let extremum = |name: &str, keep_left: fn(Ordering) -> bool| match (l.is_null(), r.is_null()) {
        (true, _) => Ok(r.clone()),
        (false, true) => Ok(l.clone()),
        (false, false) => match l.sql_cmp(r) {
            Some(o) => Ok(if keep_left(o) { l } else { r }.clone()),
            None => Err(Error::type_err(format!(
                "{name}: incomparable values {l} and {r}"
            ))),
        },
    };
    Ok(match op {
        And => value_truth(l).and(value_truth(r)).to_value(),
        Or => value_truth(l).or(value_truth(r)).to_value(),
        Eq | Neq | Lt | LtEq | Gt | GtEq => cmp_truth(op, l, r).to_value(),
        Add => l.add(r)?,
        Sub => l.sub(r)?,
        Mul => l.mul(r)?,
        Div => l.div(r)?,
        NullSafeAdd => match (l.is_null(), r.is_null()) {
            (true, _) => r.clone(),
            (false, true) => l.clone(),
            (false, false) => l.add(r)?,
        },
        Least => extremum("least", |o| o != Ordering::Greater)?,
        Greatest => extremum("greatest", |o| o != Ordering::Less)?,
    })
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

/// `truth`, negated if the expression said `NOT`.
fn negate_if(negated: bool, truth: Truth) -> Truth {
    if negated {
        truth.not()
    } else {
        truth
    }
}

/// Borrow what an [`PhysExpr::Outer`] reference names on the binding
/// stack, if it resolves. `depth` 1 is the innermost (most recently
/// pushed) outer tuple.
pub(crate) fn outer_ref(stack: &[Tuple], depth: usize, index: usize) -> Option<&Value> {
    let level = stack.len().checked_sub(depth).filter(|_| depth > 0)?;
    stack[level].get(index)
}

/// [`outer_ref`], owned, with the error a dangling reference raises.
fn outer_value(stack: &[Tuple], depth: usize, index: usize) -> Result<Value> {
    outer_ref(stack, depth, index).cloned().ok_or_else(|| {
        if depth == 0 || depth > stack.len() {
            Error::execution(format!(
                "outer reference depth {depth} exceeds binding stack ({} entries)",
                stack.len()
            ))
        } else {
            Error::execution(format!("outer reference index {index} out of range"))
        }
    })
}

// ---------------------------------------------------------------------------
// The simple-predicate class.
// ---------------------------------------------------------------------------

/// Is `e` in the simple-predicate class over rows of `arity` columns —
/// will [`ExecContext::truth_fast`] answer it, given that its outer
/// references resolve (checked per call by
/// [`crate::vector::chain_bindable`])? These are the terms the chunked
/// σ may run column-wise as kernels.
pub(crate) fn is_simple(e: &PhysExpr, arity: usize) -> bool {
    let operand = |e: &PhysExpr| match e {
        PhysExpr::Column(i) => *i < arity,
        PhysExpr::Literal(_) => true,
        PhysExpr::Outer { depth, .. } => *depth >= 1,
        _ => false,
    };
    match e {
        PhysExpr::Binary { op, left, right } => match op {
            BinOp::And | BinOp::Or => is_simple(left, arity) && is_simple(right, arity),
            _ => op.is_comparison() && operand(left) && operand(right),
        },
        PhysExpr::Not(x) => is_simple(x, arity),
        PhysExpr::IsNull { expr, .. } => operand(expr),
        _ => operand(e),
    }
}

// ---------------------------------------------------------------------------
// Evaluation.
// ---------------------------------------------------------------------------

impl ExecContext {
    pub fn eval_truth<R: Row>(&mut self, e: &PhysExpr, t: &R) -> Result<Truth> {
        // Borrow-only fast path first: the general evaluator pays for
        // owned `Value` returns plus `Result` plumbing on every node.
        if let Some(truth) = self.truth_fast(e, t) {
            return Ok(truth);
        }
        Ok(value_truth(&self.eval_expr(e, t)?))
    }

    /// Zero-clone truth evaluation for the simple-predicate class: total
    /// on what [`is_simple`] admits (once its outer references
    /// resolve), `None` when the expression needs the general evaluator
    /// (subqueries, arithmetic, LIKE, out-of-range references, …); the
    /// caller then falls back to [`Self::eval_expr`], which reproduces
    /// the same semantics and reports proper errors. `AND`/`OR` answer
    /// without their right side when the left decides — semantically
    /// invisible, since nothing in the class fails or has an effect.
    pub(crate) fn truth_fast<R: Columns>(&self, e: &PhysExpr, t: &R) -> Option<Truth> {
        match e {
            PhysExpr::Binary { op, left, right } => match op {
                BinOp::And => {
                    let l = self.truth_fast(left, t)?;
                    if l == Truth::False {
                        return Some(Truth::False);
                    }
                    Some(l.and(self.truth_fast(right, t)?))
                }
                BinOp::Or => {
                    let l = self.truth_fast(left, t)?;
                    if l == Truth::True {
                        return Some(Truth::True);
                    }
                    Some(l.or(self.truth_fast(right, t)?))
                }
                _ if op.is_comparison() => {
                    let cmp = |l: &Value| self.with_value(right, t, |r| cmp_truth(*op, l, r));
                    match self.with_value(left, t, cmp).flatten() {
                        Some(truth) => Some(truth),
                        None => self.sum_truth(*op, left, right, t),
                    }
                }
                _ => None,
            },
            PhysExpr::Not(x) => Some(self.truth_fast(x, t)?.not()),
            PhysExpr::IsNull { negated, expr } => {
                self.with_value(expr, t, |v| Truth::from_bool(v.is_null() != *negated))
            }
            _ => self.with_value(e, t, value_truth),
        }
    }

    /// [`Self::truth_fast`] of a comparison a side of which is `a ± b`
    /// over leaf operands, such as a join residual's `l_shipdate >
    /// o_orderdate + 60`. The sum is [`eval_binop`]'s where that cannot
    /// fail: NULL if an operand is, else `Int ± Int` by checked
    /// arithmetic or `Float ± Float`. On an overflow or any other mix of
    /// operands it answers `None`, and the general evaluator raises or
    /// computes what it does. Out of line: the comparisons of simple
    /// predicates never get here.
    #[inline(never)]
    fn sum_truth<R: Columns>(
        &self,
        op: BinOp,
        left: &PhysExpr,
        right: &PhysExpr,
        t: &R,
    ) -> Option<Truth> {
        let side = |e: &PhysExpr| -> Option<Value> {
            let PhysExpr::Binary { op, left, right } = e else {
                return self.with_value(e, t, Value::clone);
            };
            let sum = |a: &Value, b: &Value| match (op, a, b) {
                (BinOp::Add | BinOp::Sub, Value::Null, _)
                | (BinOp::Add | BinOp::Sub, _, Value::Null) => Some(Value::Null),
                (BinOp::Add, Value::Int(a), Value::Int(b)) => a.checked_add(*b).map(Value::Int),
                (BinOp::Sub, Value::Int(a), Value::Int(b)) => a.checked_sub(*b).map(Value::Int),
                (BinOp::Add, Value::Float(a), Value::Float(b)) => Some(Value::Float(a + b)),
                (BinOp::Sub, Value::Float(a), Value::Float(b)) => Some(Value::Float(a - b)),
                _ => None,
            };
            let a = |a: &Value| self.with_value(right, t, |b| sum(a, b));
            self.with_value(left, t, a).flatten().flatten()
        };
        Some(cmp_truth(op, &side(left)?, &side(right)?))
    }

    /// `f` of a leaf operand — a row's cell through [`Columns::with_cell`],
    /// or a literal or outer value; `None` for anything that is not a
    /// (valid) column, outer or literal reference.
    #[inline(always)]
    fn with_value<R: Columns, T>(
        &self,
        e: &PhysExpr,
        t: &R,
        f: impl FnOnce(&Value) -> T,
    ) -> Option<T> {
        match e {
            PhysExpr::Column(i) => t.with_cell(*i, f),
            _ => self.const_ref(e).map(f),
        }
    }

    /// Borrowed view of an operand that is the same for every row of a
    /// call: a literal or a (resolving) outer reference.
    #[inline]
    pub(crate) fn const_ref<'a>(&'a self, e: &'a PhysExpr) -> Option<&'a Value> {
        match e {
            PhysExpr::Literal(v) => Some(v),
            PhysExpr::Outer { depth, index } => outer_ref(&self.outer, *depth, *index),
            _ => None,
        }
    }

    pub fn eval_expr<R: Row>(&mut self, e: &PhysExpr, t: &R) -> Result<Value> {
        Ok(match e {
            PhysExpr::Column(i) => t
                .with_cell(*i, Value::clone)
                .ok_or_else(|| Error::execution(format!("column #{i} out of range")))?,
            PhysExpr::Outer { depth, index } => outer_value(&self.outer, *depth, *index)?,
            PhysExpr::Literal(v) => v.clone(),
            PhysExpr::Binary { op, left, right } => {
                // Short-circuit AND/OR (3-valued: TRUE∨x = TRUE, FALSE∧x
                // = FALSE) — this is what makes cheap-disjunct-first
                // orderings pay off in canonical plans.
                match op {
                    BinOp::Or | BinOp::And => {
                        let is_or = *op == BinOp::Or;
                        let l = value_truth(&self.eval_expr(left, t)?);
                        if l == Truth::from_bool(is_or) {
                            return Ok(Value::Bool(is_or));
                        }
                        let r = value_truth(&self.eval_expr(right, t)?);
                        if is_or { l.or(r) } else { l.and(r) }.to_value()
                    }
                    _ => {
                        let l = self.eval_expr(left, t)?;
                        let r = self.eval_expr(right, t)?;
                        eval_binop(*op, &l, &r)?
                    }
                }
            }
            PhysExpr::Not(x) => value_truth(&self.eval_expr(x, t)?).not().to_value(),
            PhysExpr::Neg(x) => self.eval_expr(x, t)?.neg()?,
            PhysExpr::IsNull { negated, expr } => {
                let is_null = self.eval_expr(expr, t)?.is_null();
                Value::Bool(is_null != *negated)
            }
            PhysExpr::Like {
                negated,
                expr,
                pattern,
            } => {
                let v = self.eval_expr(expr, t)?;
                let p = self.eval_expr(pattern, t)?;
                negate_if(*negated, v.sql_like(&p)?).to_value()
            }
            PhysExpr::InList {
                negated,
                expr,
                list,
            } => {
                let needle = self.eval_expr(expr, t)?;
                let mut vals = Vec::with_capacity(list.len());
                for item in list {
                    vals.push(self.eval_expr(item, t)?);
                }
                negate_if(*negated, in_membership(&needle, vals.iter())).to_value()
            }
            PhysExpr::Subquery { .. } => {
                let rel = self.eval_subquery(e, t)?;
                match rel.len() {
                    0 => Value::Null,
                    1 => rel.rows()[0]
                        .get(0)
                        .cloned()
                        .ok_or_else(|| Error::execution("scalar subquery with no column"))?,
                    n => {
                        return Err(Error::execution(format!(
                            "scalar subquery returned {n} rows"
                        )))
                    }
                }
            }
            PhysExpr::Exists { negated, .. } => {
                let rel = self.eval_subquery(e, t)?;
                Value::Bool(rel.is_empty() == *negated)
            }
            PhysExpr::InSubquery { negated, expr, .. } => {
                let needle = self.eval_expr(expr, t)?;
                let rel = self.eval_subquery(e, t)?;
                // SQL can only produce one-column IN subqueries, but a
                // hand-built physical plan can reach here with a
                // zero-width relation — typed error, not a panic.
                let mut vals = Vec::with_capacity(rel.len());
                for r in rel.rows() {
                    vals.push(
                        r.get(0)
                            .ok_or_else(|| Error::execution("IN subquery with no column"))?,
                    );
                }
                negate_if(*negated, in_membership(&needle, vals.into_iter())).to_value()
            }
            PhysExpr::QuantifiedCmp { op, all, expr, .. } => {
                // SQL semantics: `x θ ALL(S)` is the conjunction of
                // `x θ y` over S (TRUE over ∅), `x θ ANY(S)` the
                // disjunction (FALSE over ∅), both in 3-valued logic.
                let x = self.eval_expr(expr, t)?;
                let rel = self.eval_subquery(e, t)?;
                let mut acc = Truth::from_bool(*all);
                for row in rel.rows() {
                    let y = row
                        .get(0)
                        .ok_or_else(|| Error::execution("quantified subquery with no column"))?;
                    let cmp = value_truth(&eval_binop(*op, &x, y)?);
                    acc = if *all { acc.and(cmp) } else { acc.or(cmp) };
                    // Short-circuit on the absorbing element.
                    if acc == Truth::from_bool(!*all) {
                        break;
                    }
                }
                acc.to_value()
            }
        })
    }

    /// Evaluate the nested plan of `e` — one of the four subquery nodes
    /// — for the current tuple, honoring the memo options. The current
    /// tuple is pushed onto the binding stack so `Outer { depth: 1 }`
    /// references inside the subplan see it.
    fn eval_subquery<R: Row>(&mut self, e: &PhysExpr, t: &R) -> Result<Arc<Relation>> {
        let SubqueryRef {
            plan,
            correlated,
            outer_keys,
        } = e.own_subquery().expect("a subquery node");
        let ptr = Arc::as_ptr(plan) as usize;
        if !correlated && self.options.memo_uncorrelated {
            if let Some(r) = self.uncorr.get(&ptr) {
                self.counters.memo_uncorr_hits += 1;
                return Ok(r.clone());
            }
            self.counters.memo_uncorr_misses += 1;
            let r = self.run_nested(plan, t)?;
            // The memo retains the result for the rest of the query:
            // charge the retained shared rows plus entry overhead.
            self.gov
                .charge(MEMO_ENTRY_BYTES + r.len() as u64 * SHARED_ROW_BYTES)?;
            self.uncorr.insert(ptr, r.clone());
            return Ok(r);
        }
        if correlated && self.options.memo_correlated && !outer_keys.is_empty() {
            // Memo probe without materializing a key: hash (plan ptr,
            // correlation values) straight off the outer row, then
            // compare candidate entries value-by-value.
            let hash = corr_hash(ptr, outer_keys, t);
            let hit = |key: &Tuple| corr_key_matches(key, outer_keys, t);
            if let Some(rel) = self.corr.get(hash, ptr, hit) {
                self.counters.memo_corr_hits += 1;
                return Ok(rel.clone());
            }
            self.counters.memo_corr_misses += 1;
            let r = self.run_nested(plan, t)?;
            // Materialize the key only on first miss (shared-row Tuple).
            let key: Tuple = outer_keys
                .iter()
                .map(|&i| with_corr(t, i, Value::clone))
                .collect();
            self.gov
                .charge(MEMO_ENTRY_BYTES + tuple_bytes(&key) + r.len() as u64 * SHARED_ROW_BYTES)?;
            self.corr.insert(hash, ptr, key, r.clone());
            return Ok(r);
        }
        self.run_nested(plan, t)
    }

    fn run_nested<R: Row>(&mut self, plan: &Arc<PhysNode>, t: &R) -> Result<Arc<Relation>> {
        // Shared-row: binding an outer tuple is a refcount bump (a join
        // pair under a subquery predicate is materialized here).
        self.outer.push(t.to_tuple());
        let before = self.gov.used_bytes();
        let result = self.eval_block(plan);
        self.outer.pop();
        // Transient charges made while evaluating the nested plan are
        // returned to the budget when the invocation completes — the
        // live-memory footprint of N correlated invocations is one
        // invocation at a time, not their sum. `peak_bytes` already
        // recorded the high-water mark inside the call, and anything a
        // memo retains beyond the call is re-charged by the caller.
        let delta = self.gov.used_bytes().saturating_sub(before);
        self.gov.release(delta);
        result
    }
}

/// `f` of correlation column `i` of the outer row; the planner resolved
/// it against that row's schema.
#[inline]
fn with_corr<R: Row, T>(t: &R, i: usize, f: impl FnOnce(&Value) -> T) -> T {
    t.with_cell(i, f)
        .expect("correlation key within the outer row")
}

/// Precomputed FxHash of `(plan ptr, t[outer_keys...])`, matching the
/// hash of the stored correlation key tuples.
fn corr_hash<R: Row>(ptr: usize, outer_keys: &[usize], t: &R) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = bypass_types::FxHasher::default();
    h.write_usize(ptr);
    h.write_usize(outer_keys.len());
    for &i in outer_keys {
        with_corr(t, i, |v| v.hash(&mut h));
    }
    h.finish()
}

fn corr_key_matches<R: Row>(key: &Tuple, outer_keys: &[usize], t: &R) -> bool {
    key.arity() == outer_keys.len()
        && outer_keys
            .iter()
            .enumerate()
            .all(|(k, &i)| with_corr(t, i, |v| key[k] == *v))
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
        assert_eq!(eval_binop(BinOp::Greatest, &n, &n).unwrap(), n);
        let text = Value::from("x");
        assert!(eval_binop(BinOp::Least, &five, &text).is_err());
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
        let err = |depth, index| outer_value(&stack, depth, index).unwrap_err().to_string();
        assert!(err(3, 0).contains("exceeds binding stack"));
        assert!(err(0, 0).contains("exceeds binding stack"));
        assert!(err(1, 5).contains("index 5 out of range"));
    }

    #[test]
    fn truth_of_values() {
        assert_eq!(value_truth(&Value::Bool(true)), Truth::True);
        assert_eq!(value_truth(&Value::Bool(false)), Truth::False);
        assert_eq!(value_truth(&Value::Null), Truth::Unknown);
        assert_eq!(value_truth(&Value::Int(1)), Truth::Unknown);
    }
}
