use std::collections::HashSet;
use std::sync::Arc;

use bypass_algebra::{AggCall, AggFunc, BinOp, LogicalPlan, PlanBuilder, Scalar};
use bypass_catalog::Catalog;
use bypass_sql::{
    AggregateFunc, BinaryOp, Expr, Literal, Quantifier, SelectItem, SelectStmt, TableRef, UnaryOp,
};
use bypass_types::{Error, Result, Value};

/// Translate a parsed query block into its canonical logical plan.
pub fn translate_query(catalog: &Catalog, stmt: &SelectStmt) -> Result<Arc<LogicalPlan>> {
    let _span = bypass_trace::span("translate.query");
    Translator::new(catalog).translate(stmt)
}

/// The canonical translator. Stateless apart from the catalog reference;
/// each nested block is translated recursively with its own FROM scope.
pub struct Translator<'a> {
    catalog: &'a Catalog,
}

impl<'a> Translator<'a> {
    pub fn new(catalog: &'a Catalog) -> Translator<'a> {
        Translator { catalog }
    }

    /// Canonical translation of one query block:
    ///
    /// ```text
    /// [Sort] ∘ [Distinct] ∘ (Project | Aggregate) ∘ [Filter] ∘ (× of Scans)
    /// ```
    pub fn translate(&self, stmt: &SelectStmt) -> Result<Arc<LogicalPlan>> {
        // FROM: left-deep cross product of the scans; the WHERE clause
        // carries all join predicates (canonical form). An absent FROM
        // clause ranges over the one-row Singleton relation.
        let mut seen_aliases: HashSet<String> = HashSet::new();
        let mut builder: Option<PlanBuilder> = if stmt.from.is_empty() {
            Some(PlanBuilder::from_plan(Arc::new(LogicalPlan::Singleton)))
        } else {
            None
        };
        for table_ref in &stmt.from {
            let alias = table_ref.effective_alias().to_string();
            if !seen_aliases.insert(alias.to_ascii_lowercase()) {
                return Err(Error::plan(format!(
                    "duplicate table alias `{alias}` in FROM clause"
                )));
            }
            let item = match table_ref {
                TableRef::Table { name, .. } => {
                    let table = self.catalog.get(name)?;
                    PlanBuilder::scan(table.name(), &alias, table.schema().clone())
                }
                // Derived table (outlook item 2): translate the block and
                // re-qualify its output columns with the alias. The
                // nested block may itself contain disjunctive nesting —
                // the unnesting driver rewrites it in place.
                TableRef::Derived { subquery, .. } => {
                    PlanBuilder::from_plan(self.translate(subquery)?).aliased(&alias)
                }
            };
            builder = Some(match builder {
                None => item,
                Some(b) => b.cross_join(item),
            });
        }
        let mut builder = builder.expect("non-empty FROM");

        // WHERE.
        if let Some(w) = &stmt.where_clause {
            let predicate = self.expr(w)?;
            let schema = builder.schema();
            check_types(&predicate, &schema)?;
            check_boolean(&predicate, &schema, "a WHERE clause")?;
            builder = builder.filter(predicate);
        }

        // SELECT list: either pure aggregation (scalar subquery blocks /
        // aggregate queries) or a plain projection.
        let has_aggregate = stmt.items.iter().any(|it| match it {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        });
        if has_aggregate {
            let mut aggs = Vec::new();
            for (i, item) in stmt.items.iter().enumerate() {
                match item {
                    SelectItem::Expr {
                        expr:
                            Expr::Aggregate {
                                func,
                                distinct,
                                arg,
                            },
                        alias,
                    } => {
                        let call = AggCall::new(
                            agg_func(*func),
                            *distinct,
                            arg.as_deref().map(|a| self.expr(a)).transpose()?,
                        );
                        let name = alias.clone().unwrap_or_else(|| format!("{call}"));
                        aggs.push((call, name));
                    }
                    other => {
                        return Err(Error::plan(format!(
                            "select item {i} mixes aggregates with non-aggregates \
                             (GROUP BY is not part of the paper's query language): {other:?}"
                        )))
                    }
                }
            }
            builder = builder.aggregate(vec![], aggs);
        } else {
            let schema = builder.schema();
            let mut exprs: Vec<(Scalar, Option<String>)> = Vec::new();
            for item in &stmt.items {
                match item {
                    SelectItem::Wildcard => {
                        if stmt.from.is_empty() {
                            return Err(Error::plan("SELECT * requires a FROM clause"));
                        }
                        for f in schema.fields() {
                            exprs.push((column_scalar(f.qualifier(), f.name()), None));
                        }
                    }
                    SelectItem::QualifiedWildcard(q) => {
                        let indices = schema.indices_with_qualifier(q);
                        if indices.is_empty() {
                            return Err(Error::plan(format!(
                                "`{q}.*` does not match any FROM table"
                            )));
                        }
                        for i in indices {
                            let f = schema.field(i);
                            exprs.push((column_scalar(f.qualifier(), f.name()), None));
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        let e = self.expr(expr)?;
                        check_types(&e, &schema)?;
                        exprs.push((e, alias.clone()));
                    }
                }
            }
            builder = builder.project(exprs);
        }

        if stmt.distinct {
            builder = builder.distinct();
        }

        if !stmt.order_by.is_empty() {
            // ORDER BY may reference columns that are not in the select
            // list (`SELECT id … ORDER BY salary`). Such keys are carried
            // through as hidden projection columns and dropped afterwards
            // — except under DISTINCT, where SQL requires sort keys to
            // appear in the select list (hidden columns would change the
            // duplicate groups).
            let visible = builder.schema();
            let mut keys: Vec<(Scalar, bool)> = Vec::new();
            let mut hidden: Vec<(Scalar, String)> = Vec::new();
            for (i, item) in stmt.order_by.iter().enumerate() {
                // An integer literal is an output-column ordinal
                // (`ORDER BY 2 DESC` sorts by the second select item),
                // never a constant sort key.
                let key = if let Expr::Literal(Literal::Int(n)) = &item.expr {
                    let arity = visible.arity() as i64;
                    if *n < 1 || *n > arity {
                        return Err(Error::plan(format!(
                            "ORDER BY position {n} is not in the select list \
                             (which has {arity} columns)"
                        )));
                    }
                    let f = visible.field(*n as usize - 1);
                    column_scalar(f.qualifier(), f.name())
                } else {
                    self.expr(&item.expr)?
                };
                let resolvable = key.column_refs().iter().all(|c| c.resolves_in(&visible));
                if resolvable {
                    keys.push((key, item.desc));
                } else if stmt.distinct {
                    return Err(Error::plan(format!(
                        "ORDER BY expression `{}` must appear in the select list \
                         of a SELECT DISTINCT query",
                        item.expr
                    )));
                } else {
                    let name = format!("__sort{i}");
                    hidden.push((key, name.clone()));
                    keys.push((Scalar::col(name), item.desc));
                }
            }
            if hidden.is_empty() {
                builder = builder.sort(keys);
            } else {
                // Rebuild the projection with the hidden keys appended,
                // sort, then drop them again.
                let Some((restore, widened)) = widen_projection(&builder, hidden) else {
                    return Err(Error::plan(
                        "ORDER BY on a non-projected column requires a plain \
                         projection block",
                    ));
                };
                builder = widened.sort(keys).project(restore);
            }
        }

        if let Some(n) = stmt.limit {
            builder = builder.limit(n as usize);
        }

        Ok(builder.build())
    }

    /// Translate a SQL expression; nested query blocks recurse through
    /// [`Translator::translate`] and end up as plan-valued scalars.
    pub fn expr(&self, e: &Expr) -> Result<Scalar> {
        Ok(match e {
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => Scalar::qcol(q.clone(), name.clone()),
                None => Scalar::col(name.clone()),
            },
            Expr::Literal(l) => Scalar::Literal(literal_value(l)),
            Expr::Binary { op, left, right } => {
                Scalar::binary(binary_op(*op), self.expr(left)?, self.expr(right)?)
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => self.expr(expr)?.not(),
                UnaryOp::Neg => Scalar::Neg(Box::new(self.expr(expr)?)),
            },
            Expr::Like {
                negated,
                expr,
                pattern,
            } => Scalar::Like {
                negated: *negated,
                expr: Box::new(self.expr(expr)?),
                pattern: Box::new(self.expr(pattern)?),
            },
            Expr::Between {
                negated,
                expr,
                low,
                high,
            } => {
                // e BETWEEN lo AND hi  ≡  e >= lo AND e <= hi.
                let e1 = Scalar::binary(BinOp::GtEq, self.expr(expr)?, self.expr(low)?);
                let e2 = Scalar::binary(BinOp::LtEq, self.expr(expr)?, self.expr(high)?);
                let both = e1.and(e2);
                if *negated {
                    both.not()
                } else {
                    both
                }
            }
            Expr::IsNull { negated, expr } => Scalar::IsNull {
                negated: *negated,
                expr: Box::new(self.expr(expr)?),
            },
            Expr::InList {
                negated,
                expr,
                list,
            } => Scalar::InList {
                negated: *negated,
                expr: Box::new(self.expr(expr)?),
                list: list.iter().map(|e| self.expr(e)).collect::<Result<_>>()?,
            },
            Expr::InSubquery {
                negated,
                expr,
                subquery,
            } => Scalar::InSubquery {
                negated: *negated,
                expr: Box::new(self.expr(expr)?),
                plan: self.translate(subquery)?,
            },
            Expr::Exists { negated, subquery } => Scalar::Exists {
                negated: *negated,
                plan: self.translate(subquery)?,
            },
            Expr::QuantifiedCmp {
                op,
                quantifier,
                expr,
                subquery,
            } => {
                if !op.is_comparison() {
                    return Err(Error::plan("quantified comparison needs θ operator"));
                }
                let plan = self.translate(subquery)?;
                if plan.schema().arity() != 1 {
                    return Err(Error::plan(format!(
                        "quantified subquery must return exactly one column, got {}",
                        plan.schema().arity()
                    )));
                }
                Scalar::QuantifiedCmp {
                    op: binary_op(*op),
                    all: *quantifier == Quantifier::All,
                    expr: Box::new(self.expr(expr)?),
                    plan,
                }
            }
            Expr::ScalarSubquery(subquery) => {
                let plan = self.translate(subquery)?;
                if plan.schema().arity() != 1 {
                    return Err(Error::plan(format!(
                        "scalar subquery must return exactly one column, got {}",
                        plan.schema().arity()
                    )));
                }
                Scalar::Subquery(plan)
            }
            Expr::Aggregate { .. } => {
                return Err(Error::plan(
                    "aggregate function outside a select list (GROUP BY/HAVING are \
                     not part of the paper's query language)",
                ))
            }
        })
    }
}

/// Reject a predicate position — a WHERE clause, an operand of
/// AND/OR/NOT — holding an expression whose type is known and is not
/// `BOOL`. The executor maps a non-boolean predicate result to UNKNOWN,
/// so without this check `WHERE a` over an `INT` column silently empties
/// the result. `Unknown` (outer references, bare NULL) stays accepted.
fn check_boolean(
    e: &Scalar,
    schema: &bypass_types::Schema,
    place: impl std::fmt::Display,
) -> Result<()> {
    match e.data_type(schema) {
        bypass_types::DataType::Bool | bypass_types::DataType::Unknown => Ok(()),
        t => Err(Error::type_err(format!(
            "`{e}` is {t}, not a boolean, in {place}"
        ))),
    }
}

/// Reject comparisons whose operand types can never be compared
/// (`TEXT` vs numeric and the like) and non-boolean operands of
/// AND/OR/NOT ([`check_boolean`]). `Value::sql_cmp` yields UNKNOWN for
/// such pairs, so without this check a typo'd literal silently empties
/// the result instead of surfacing the type error. Columns that do not
/// resolve in `schema` are outer references and type as `Unknown`, which
/// is compatible with everything — correlated predicates stay untouched.
fn check_types(e: &Scalar, schema: &bypass_types::Schema) -> Result<()> {
    let incompatible = |lt: bypass_types::DataType, rt: bypass_types::DataType, what: &str| {
        if lt.is_compatible_with(rt) {
            Ok(())
        } else {
            Err(Error::type_err(format!(
                "cannot compare {lt} with {rt} in {what}"
            )))
        }
    };
    match e {
        Scalar::Binary { op, left, right } => {
            check_types(left, schema)?;
            check_types(right, schema)?;
            if op.is_comparison() {
                incompatible(
                    left.data_type(schema),
                    right.data_type(schema),
                    &format!("`{e}`"),
                )?;
            }
            if matches!(op, BinOp::And | BinOp::Or) {
                check_boolean(left, schema, format_args!("`{e}`"))?;
                check_boolean(right, schema, format_args!("`{e}`"))?;
            }
            Ok(())
        }
        Scalar::InList { expr, list, .. } => {
            check_types(expr, schema)?;
            let lt = expr.data_type(schema);
            for item in list {
                check_types(item, schema)?;
                incompatible(lt, item.data_type(schema), &format!("`{e}`"))?;
            }
            Ok(())
        }
        Scalar::InSubquery { expr, plan, .. } => {
            check_types(expr, schema)?;
            let inner = plan.schema();
            if inner.arity() == 1 {
                incompatible(
                    expr.data_type(schema),
                    inner.field(0).data_type(),
                    "an IN subquery",
                )?;
            }
            Ok(())
        }
        Scalar::QuantifiedCmp { expr, plan, .. } => {
            check_types(expr, schema)?;
            let inner = plan.schema();
            if inner.arity() == 1 {
                incompatible(
                    expr.data_type(schema),
                    inner.field(0).data_type(),
                    "a quantified comparison",
                )?;
            }
            Ok(())
        }
        Scalar::Not(inner) => {
            check_types(inner, schema)?;
            check_boolean(inner, schema, format_args!("`{e}`"))
        }
        Scalar::Neg(inner) => check_types(inner, schema),
        Scalar::IsNull { expr, .. } => check_types(expr, schema),
        Scalar::Like { expr, pattern, .. } => {
            check_types(expr, schema)?;
            check_types(pattern, schema)
        }
        Scalar::Column(_) | Scalar::Literal(_) | Scalar::Exists { .. } | Scalar::Subquery(_) => {
            Ok(())
        }
    }
}

/// A projection list: expressions with optional output aliases.
type ProjectionList = Vec<(Scalar, Option<String>)>;

/// Append hidden sort columns to the top projection of `builder`.
/// Returns the restoring projection (visible columns only, by their
/// output names) and the widened builder; `None` when the block is not
/// a plain projection.
fn widen_projection(
    builder: &PlanBuilder,
    hidden: Vec<(Scalar, String)>,
) -> Option<(ProjectionList, PlanBuilder)> {
    let plan = builder.clone().build();
    let LogicalPlan::Project { input, exprs } = plan.as_ref() else {
        return None;
    };
    let visible = plan.schema();
    let restore: Vec<(Scalar, Option<String>)> = visible
        .fields()
        .iter()
        .map(|f| {
            let col = match f.qualifier() {
                Some(q) => Scalar::qcol(q, f.name()),
                None => Scalar::col(f.name()),
            };
            (col, None)
        })
        .collect();
    let mut widened_exprs = exprs.clone();
    for (e, name) in hidden {
        widened_exprs.push((e, Some(name)));
    }
    Some((
        restore,
        PlanBuilder::from_plan(input.clone()).project(widened_exprs),
    ))
}

fn column_scalar(qualifier: Option<&str>, name: &str) -> Scalar {
    match qualifier {
        Some(q) => Scalar::qcol(q, name),
        None => Scalar::col(name),
    }
}

fn agg_func(f: AggregateFunc) -> AggFunc {
    match f {
        AggregateFunc::Count => AggFunc::Count,
        AggregateFunc::Sum => AggFunc::Sum,
        AggregateFunc::Avg => AggFunc::Avg,
        AggregateFunc::Min => AggFunc::Min,
        AggregateFunc::Max => AggFunc::Max,
    }
}

fn binary_op(op: BinaryOp) -> BinOp {
    match op {
        BinaryOp::Or => BinOp::Or,
        BinaryOp::And => BinOp::And,
        BinaryOp::Eq => BinOp::Eq,
        BinaryOp::Neq => BinOp::Neq,
        BinaryOp::Lt => BinOp::Lt,
        BinaryOp::LtEq => BinOp::LtEq,
        BinaryOp::Gt => BinOp::Gt,
        BinaryOp::GtEq => BinOp::GtEq,
        BinaryOp::Add => BinOp::Add,
        BinaryOp::Sub => BinOp::Sub,
        BinaryOp::Mul => BinOp::Mul,
        BinaryOp::Div => BinOp::Div,
    }
}

fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(x) => Value::Float(*x),
        Literal::Str(s) => Value::text(s),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_catalog::TableBuilder;
    use bypass_sql::{parse_statement, Statement};
    use bypass_types::DataType;

    fn rst_catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, prefix) in [("r", 'a'), ("s", 'b'), ("t", 'c')] {
            let mut b = TableBuilder::new();
            for i in 1..=4 {
                b = b.column(format!("{prefix}{i}"), DataType::Int);
            }
            c.register(name, b.build()).unwrap();
        }
        c
    }

    fn plan_of(sql: &str) -> Arc<LogicalPlan> {
        let catalog = rst_catalog();
        let Statement::Query(q) = parse_statement(sql).unwrap() else {
            panic!("not a query")
        };
        translate_query(&catalog, &q).unwrap()
    }

    #[test]
    fn simple_select_shape() {
        let p = plan_of("SELECT a1 FROM r WHERE a4 > 1500");
        let text = p.explain();
        assert_eq!(text, "Π[a1]\n  σ[(a4 > 1500)]\n    Scan r\n");
    }

    #[test]
    fn distinct_star_and_order_by() {
        let p = plan_of("SELECT DISTINCT * FROM r ORDER BY a1 DESC, a2");
        let text = p.explain();
        assert!(text.starts_with("Sort[a1 DESC, a2]\n  δ\n    Π[r.a1, r.a2, r.a3, r.a4]\n"));
    }

    #[test]
    fn cross_product_from_list() {
        let p = plan_of("SELECT * FROM r, s WHERE a1 = b1");
        let text = p.explain();
        assert!(text.contains("×"), "{text}");
        assert_eq!(p.schema().arity(), 8);
    }

    #[test]
    fn canonical_q1_embeds_subquery_in_predicate() {
        let p = plan_of(
            "SELECT DISTINCT * FROM r \
             WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500",
        );
        // δ over Π over σ whose predicate contains the nested block.
        let text = p.explain();
        assert!(
            text.contains("σ[((a1 = ⟨subquery⟩) OR (a4 > 1500))]"),
            "{text}"
        );
        assert!(
            text.contains("Γ[; count(distinct *): count(distinct *)]"),
            "{text}"
        );
        // The whole plan has no free refs (correlation binds to r).
        assert!(p.free_refs().is_empty());
        assert!(p.contains_subquery());
    }

    #[test]
    fn canonical_q2_disjunctive_correlation() {
        let p = plan_of(
            "SELECT DISTINCT * FROM r \
             WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)",
        );
        let text = p.explain();
        assert!(
            text.contains("σ[((a2 = b2) OR (b4 > 1500))]"),
            "inner disjunction kept canonical: {text}"
        );
    }

    #[test]
    fn aliases_qualify_scans() {
        let p = plan_of("SELECT x.a1 FROM r AS x WHERE x.a4 > 0");
        let text = p.explain();
        assert!(text.contains("Scan r AS x"), "{text}");
        assert_eq!(p.schema().field(0).qualified_name(), "x.a1");
    }

    #[test]
    fn self_join_via_aliases() {
        let p = plan_of("SELECT x.a1, y.a1 FROM r x, r y WHERE x.a2 = y.a3");
        assert_eq!(p.schema().arity(), 2);
    }

    #[test]
    fn duplicate_alias_rejected() {
        let catalog = rst_catalog();
        let Statement::Query(q) = parse_statement("SELECT * FROM r, r").unwrap() else {
            panic!()
        };
        let err = translate_query(&catalog, &q).unwrap_err();
        assert!(err.to_string().contains("duplicate table alias"), "{err}");
    }

    #[test]
    fn unknown_table_rejected() {
        let catalog = rst_catalog();
        let Statement::Query(q) = parse_statement("SELECT * FROM nope").unwrap() else {
            panic!()
        };
        assert!(translate_query(&catalog, &q).is_err());
    }

    #[test]
    fn exists_and_in_subqueries() {
        let p =
            plan_of("SELECT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 1500");
        assert!(p.contains_subquery());
        let p = plan_of("SELECT * FROM r WHERE a1 IN (SELECT b1 FROM s) OR a4 > 1500");
        assert!(p.contains_subquery());
    }

    #[test]
    fn between_desugars() {
        let p = plan_of("SELECT * FROM r WHERE a1 BETWEEN 1 AND 10");
        let text = p.explain();
        assert!(text.contains("((a1 >= 1) AND (a1 <= 10))"), "{text}");
    }

    #[test]
    fn mixed_aggregate_projection_rejected() {
        let catalog = rst_catalog();
        let Statement::Query(q) = parse_statement("SELECT a1, COUNT(*) FROM r").unwrap() else {
            panic!()
        };
        let err = translate_query(&catalog, &q).unwrap_err();
        assert!(err.to_string().contains("mixes aggregates"), "{err}");
    }

    #[test]
    fn multi_column_scalar_subquery_rejected() {
        let catalog = rst_catalog();
        let Statement::Query(q) =
            parse_statement("SELECT * FROM r WHERE a1 = (SELECT b1, b2 FROM s)").unwrap()
        else {
            panic!()
        };
        let err = translate_query(&catalog, &q).unwrap_err();
        assert!(err.to_string().contains("exactly one column"), "{err}");
    }

    #[test]
    fn order_by_non_projected_column_uses_hidden_keys() {
        let p = plan_of("SELECT a1 FROM r ORDER BY a4 DESC, a1");
        // Output schema stays one column.
        assert_eq!(p.schema().arity(), 1);
        assert_eq!(p.schema().field(0).name(), "a1");
        let text = p.explain();
        assert!(text.contains("__sort0"), "{text}");
        assert!(text.contains("Sort[__sort0 DESC, a1]"), "{text}");
        // Restoring projection on top.
        assert!(text.starts_with("Π[r.a1]"), "{text}");
    }

    #[test]
    fn order_by_distinct_requires_projected_keys() {
        let catalog = rst_catalog();
        let Statement::Query(q) = parse_statement("SELECT DISTINCT a1 FROM r ORDER BY a4").unwrap()
        else {
            panic!()
        };
        let err = translate_query(&catalog, &q).unwrap_err();
        assert!(err.to_string().contains("SELECT DISTINCT"), "{err}");
        // ... but ordering DISTINCT output by a projected key is fine.
        let p = plan_of("SELECT DISTINCT a1 FROM r ORDER BY a1 DESC");
        assert!(p.explain().contains("Sort[a1 DESC]"));
    }

    #[test]
    fn order_by_ordinal_resolves_to_select_item() {
        let p = plan_of("SELECT a1, a2 FROM r ORDER BY 2 DESC, 1");
        let text = p.explain();
        assert!(text.contains("Sort[r.a2 DESC, r.a1]"), "{text}");
        // Out-of-range ordinals are plan errors, not constant sort keys.
        let catalog = rst_catalog();
        for sql in ["SELECT a1 FROM r ORDER BY 0", "SELECT a1 FROM r ORDER BY 2"] {
            let Statement::Query(q) = parse_statement(sql).unwrap() else {
                panic!()
            };
            let err = translate_query(&catalog, &q).unwrap_err();
            assert!(err.to_string().contains("ORDER BY position"), "{err}");
        }
    }

    #[test]
    fn from_less_select_plans_over_singleton() {
        let catalog = Catalog::new();
        let Statement::Query(q) = parse_statement("SELECT 1 + 1 AS two").unwrap() else {
            panic!()
        };
        let p = translate_query(&catalog, &q).unwrap();
        assert!(p.explain().contains("Singleton"), "{}", p.explain());
        assert_eq!(p.schema().field(0).name(), "two");
        // `SELECT *` has nothing to range over.
        let Statement::Query(q) = parse_statement("SELECT *").unwrap() else {
            panic!()
        };
        let err = translate_query(&catalog, &q).unwrap_err();
        assert!(err.to_string().contains("requires a FROM clause"), "{err}");
    }

    #[test]
    fn incomparable_types_rejected_at_translate_time() {
        let mut catalog = rst_catalog();
        let mut b = TableBuilder::new();
        b = b.column("w_word", DataType::Text);
        catalog.register("w", b.build()).unwrap();
        for sql in [
            "SELECT * FROM w WHERE w_word > 5",
            "SELECT * FROM w WHERE w_word IN (1, 2)",
            "SELECT * FROM w WHERE w_word IN (SELECT a1 FROM r)",
            "SELECT * FROM w WHERE w_word = ANY (SELECT a1 FROM r)",
        ] {
            let Statement::Query(q) = parse_statement(sql).unwrap() else {
                panic!()
            };
            let err = translate_query(&catalog, &q).unwrap_err();
            assert!(err.to_string().contains("cannot compare"), "{sql}: {err}");
        }
        // Correlated references from an enclosing block stay untouched
        // (they type as Unknown inside the inner scope).
        let Statement::Query(q) = parse_statement(
            "SELECT * FROM r WHERE EXISTS (SELECT * FROM w WHERE w_word = a1 OR a2 > 1)",
        )
        .unwrap() else {
            panic!()
        };
        assert!(translate_query(&catalog, &q).is_ok());
    }

    #[test]
    fn aggregate_query_top_level() {
        let p = plan_of("SELECT COUNT(*) AS n, MIN(a1) FROM r WHERE a4 > 0");
        let s = p.schema();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.field(0).name(), "n");
        assert_eq!(s.field(1).name(), "min(a1)");
    }
}
