use std::sync::Arc;

use bypass_types::{DataType, Field, Schema, Value};

use crate::expr::{AggCall, Scalar};
use crate::plan::node::{LogicalPlan, Stream};

/// Fluent construction of logical plans — the rewrite code and the test
/// suites build expected plans with this.
///
/// ```
/// use bypass_algebra::{PlanBuilder, Scalar};
///
/// let plan = PlanBuilder::test_scan("r", &["a1", "a2"])
///     .filter(Scalar::qcol("r", "a1").gt(Scalar::lit(10i64)))
///     .project_columns(&[("r", "a2")])
///     .build();
/// assert_eq!(plan.schema().arity(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    plan: Arc<LogicalPlan>,
}

impl PlanBuilder {
    pub fn from_plan(plan: Arc<LogicalPlan>) -> PlanBuilder {
        PlanBuilder { plan }
    }

    /// A base-table scan with an explicit (alias-qualified) schema.
    pub fn scan(table: impl Into<String>, alias: impl Into<String>, schema: Schema) -> PlanBuilder {
        let alias = alias.into();
        let schema = schema.with_qualifier(&alias);
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Scan {
                table: table.into(),
                alias,
                schema,
            }),
        }
    }

    /// Test helper: a scan of table `name` aliased as itself whose
    /// columns are all INT.
    pub fn test_scan(name: &str, columns: &[&str]) -> PlanBuilder {
        let schema = Schema::new(
            columns
                .iter()
                .map(|c| Field::new(*c, DataType::Int))
                .collect(),
        );
        PlanBuilder::scan(name, name, schema)
    }

    pub fn filter(self, predicate: Scalar) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Filter {
                input: self.plan,
                predicate,
            }),
        }
    }

    pub fn project(self, exprs: Vec<(Scalar, Option<String>)>) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Project {
                input: self.plan,
                exprs,
            }),
        }
    }

    /// Project a list of qualified columns.
    pub fn project_columns(self, cols: &[(&str, &str)]) -> PlanBuilder {
        let exprs = cols
            .iter()
            .map(|(q, n)| (Scalar::qcol(*q, *n), None))
            .collect();
        self.project(exprs)
    }

    pub fn cross_join(self, other: PlanBuilder) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::CrossJoin {
                left: self.plan,
                right: other.plan,
            }),
        }
    }

    pub fn join(self, other: PlanBuilder, predicate: Scalar) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Join {
                left: self.plan,
                right: other.plan,
                predicate,
            }),
        }
    }

    pub fn outer_join(
        self,
        other: PlanBuilder,
        predicate: Scalar,
        defaults: Vec<(String, Value)>,
    ) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::OuterJoin {
                left: self.plan,
                right: other.plan,
                predicate,
                defaults,
            }),
        }
    }

    pub fn aggregate(self, keys: Vec<Scalar>, aggs: Vec<(AggCall, String)>) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Aggregate {
                input: self.plan,
                keys,
                aggs,
            }),
        }
    }

    pub fn binary_group(
        self,
        other: PlanBuilder,
        left_key: Scalar,
        right_key: Scalar,
        agg: AggCall,
        name: impl Into<String>,
    ) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::BinaryGroup {
                left: self.plan,
                right: other.plan,
                left_key,
                right_key,
                agg,
                name: name.into(),
            }),
        }
    }

    pub fn map(self, expr: Scalar, name: impl Into<String>) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Map {
                input: self.plan,
                expr,
                name: name.into(),
            }),
        }
    }

    pub fn numbering(self, name: impl Into<String>) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Numbering {
                input: self.plan,
                name: name.into(),
            }),
        }
    }

    /// Re-qualify the output columns (derived-table alias).
    pub fn aliased(self, alias: impl Into<String>) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Alias {
                input: self.plan,
                alias: alias.into(),
            }),
        }
    }

    pub fn limit(self, n: usize) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Limit {
                input: self.plan,
                n,
            }),
        }
    }

    pub fn distinct(self) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Distinct { input: self.plan }),
        }
    }

    pub fn sort(self, keys: Vec<(Scalar, bool)>) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Sort {
                input: self.plan,
                keys,
            }),
        }
    }

    pub fn union(self, other: PlanBuilder) -> PlanBuilder {
        PlanBuilder {
            plan: Arc::new(LogicalPlan::Union {
                left: self.plan,
                right: other.plan,
            }),
        }
    }

    /// Create a bypass selection and return builders for its positive and
    /// negative streams — both share the *same* bypass node (a DAG).
    pub fn bypass_filter(self, predicate: Scalar) -> (PlanBuilder, PlanBuilder) {
        let bypass = Arc::new(LogicalPlan::BypassFilter {
            input: self.plan,
            predicate,
        });
        (
            PlanBuilder {
                plan: Arc::new(LogicalPlan::Stream {
                    source: bypass.clone(),
                    stream: Stream::Positive,
                }),
            },
            PlanBuilder {
                plan: Arc::new(LogicalPlan::Stream {
                    source: bypass,
                    stream: Stream::Negative,
                }),
            },
        )
    }

    /// Create a bypass join and return builders for both streams.
    pub fn bypass_join(self, other: PlanBuilder, predicate: Scalar) -> (PlanBuilder, PlanBuilder) {
        let bypass = Arc::new(LogicalPlan::BypassJoin {
            left: self.plan,
            right: other.plan,
            predicate,
        });
        (
            PlanBuilder {
                plan: Arc::new(LogicalPlan::Stream {
                    source: bypass.clone(),
                    stream: Stream::Positive,
                }),
            },
            PlanBuilder {
                plan: Arc::new(LogicalPlan::Stream {
                    source: bypass,
                    stream: Stream::Negative,
                }),
            },
        )
    }

    pub fn build(self) -> Arc<LogicalPlan> {
        self.plan
    }

    pub fn schema(&self) -> Schema {
        self.plan.schema()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_builds() {
        let plan = PlanBuilder::test_scan("r", &["a1", "a2"])
            .filter(Scalar::qcol("r", "a1").gt(Scalar::lit(10i64)))
            .project_columns(&[("r", "a2")])
            .build();
        assert_eq!(plan.schema().arity(), 1);
        assert_eq!(plan.schema().field(0).name(), "a2");
    }

    #[test]
    fn bypass_streams_share_the_source() {
        let (pos, neg) = PlanBuilder::test_scan("r", &["a"])
            .bypass_filter(Scalar::qcol("r", "a").gt(Scalar::lit(0i64)));
        let (p, n) = (pos.build(), neg.build());
        let (LogicalPlan::Stream { source: sp, .. }, LogicalPlan::Stream { source: sn, .. }) =
            (p.as_ref(), n.as_ref())
        else {
            panic!("expected stream nodes");
        };
        assert!(Arc::ptr_eq(sp, sn), "both streams must share one bypass");
    }

    #[test]
    fn union_of_streams() {
        let (pos, neg) = PlanBuilder::test_scan("r", &["a"])
            .bypass_filter(Scalar::qcol("r", "a").gt(Scalar::lit(0i64)));
        let u = pos.union(neg).build();
        assert_eq!(u.schema().arity(), 1);
    }
}
