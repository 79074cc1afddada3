use std::sync::Arc;

use bypass_algebra::{AggCall, BinOp, ColumnRef, LogicalPlan, Scalar, Stream};
use bypass_catalog::{Catalog, TableColumns};
use bypass_types::{
    Error, FxHashMap as HashMap, FxHashSet as HashSet, Relation, Result, Schema, Tuple,
};

use crate::agg::AggSpec;
use crate::expr::{column_only, PhysExpr};
use crate::node::{Chain, JoinOn, JoinSpec, PhysKind, PhysNode, Stage};

/// Physical planning options — the defaults are what the engine always
/// uses; the ablation benchmark and the fused-vs-unfused oracle axis
/// flip the switch off to measure and cross-check its contribution.
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Fold the streaming operators directly above a join (or above one
    /// stream of a bypass join) into that join's emit step, so only the
    /// rows leaving the last of them are materialized (DESIGN.md §7).
    pub fuse_stage_chains: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            fuse_stage_chains: true,
        }
    }
}

/// Compile a logical plan into a physical one: resolve all column names
/// to positions, bind scans to catalog storage, pick join strategies
/// (hash for equi predicates, nested-loop otherwise), preserve the
/// bypass DAG structure and fuse stage chains into their joins.
pub fn physical_plan(logical: &Arc<LogicalPlan>, catalog: &Catalog) -> Result<Arc<PhysNode>> {
    physical_plan_with(logical, catalog, PlanOptions::default())
}

/// [`physical_plan`] with explicit [`PlanOptions`].
pub fn physical_plan_with(
    logical: &Arc<LogicalPlan>,
    catalog: &Catalog,
    options: PlanOptions,
) -> Result<Arc<PhysNode>> {
    let mut resolver = Resolver {
        catalog,
        scopes: Vec::new(),
        options,
    };
    resolver.plan_block(logical)
}

type Ptr = *const LogicalPlan;

/// The stage chains of one query block (a subquery is its own block,
/// compiled with its own chains in `resolve_subquery`).
///
/// A chain starts at an *exit* — an inner/outer/cross join, or the one
/// `Stream` node tapping a stream of a bypass join — and climbs while
/// the current node has exactly one consumer and that consumer streams
/// it: a subquery-free σ, Π or χ over it, or a subquery-free join whose
/// *left* input it is. Anything else (a second consumer, a blocking
/// operator, a subquery) ends the chain.
#[derive(Default)]
struct BlockChains<'a> {
    /// Host join → the logical stage nodes of its chains, bottom-up
    /// (`[0]`: a join's only chain / the positive stream's, `[1]`: the
    /// negative stream's).
    hosts: HashMap<Ptr, [Vec<&'a Arc<LogicalPlan>>; 2]>,
    /// Top stage of a chain → the exit its rows leave the host through;
    /// the top stage compiles to that node.
    tops: HashMap<Ptr, &'a Arc<LogicalPlan>>,
}

fn is_join(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::Join { .. } | LogicalPlan::OuterJoin { .. } | LogicalPlan::CrossJoin { .. }
    )
}

/// Consumers per node of one block (one entry per edge).
type Consumers<'a> = HashMap<Ptr, Vec<&'a Arc<LogicalPlan>>>;

impl<'a> BlockChains<'a> {
    /// `order` lists the block's nodes in post-order: a join that is a
    /// stage of a deeper join's chain is claimed by it before it could
    /// start a chain of its own.
    fn collect(consumers: &Consumers<'a>, order: Vec<&'a Arc<LogicalPlan>>) -> BlockChains<'a> {
        let mut chains = BlockChains::default();
        let mut staged: HashSet<Ptr> = HashSet::default();
        let mut bypass_hosts = Vec::new();
        for exit in order {
            let (host, slot) = match exit.as_ref() {
                p if is_join(p) && !staged.contains(&Arc::as_ptr(exit)) => (exit, 0),
                LogicalPlan::Stream { source, stream }
                    if matches!(source.as_ref(), LogicalPlan::BypassJoin { .. }) =>
                {
                    // A second tap of the same stream would observe the
                    // chain's output instead of the join's.
                    let taps = consumers[&Arc::as_ptr(source)]
                        .iter()
                        .filter(|c| matches!(c.as_ref(), LogicalPlan::Stream { stream: s, .. } if s == stream))
                        .count();
                    if taps != 1 {
                        continue;
                    }
                    bypass_hosts.push(source);
                    (source, (*stream == Stream::Negative) as usize)
                }
                _ => continue,
            };
            let mut chain = Vec::new();
            let mut cur = exit;
            while let Some([consumer]) = consumers.get(&Arc::as_ptr(cur)).map(Vec::as_slice) {
                if !consumer.streams(cur) {
                    break;
                }
                chain.push(*consumer);
                cur = consumer;
            }
            if chain.is_empty() {
                continue;
            }
            staged.extend(chain.iter().map(|s| Arc::as_ptr(s)));
            chains.tops.insert(Arc::as_ptr(cur), exit);
            chains.hosts.entry(Arc::as_ptr(host)).or_default()[slot] = chain;
        }
        for host in bypass_hosts {
            chains.break_cycles(host);
        }
        chains
    }

    /// A bypass join runs when its first stream is tapped, and with it
    /// both chains — including the build sides of their fused joins. A
    /// build side that (through any fused dependency) taps the same
    /// bypass join would need its result while producing it: cut the
    /// chain below that stage. The stages above it compile unfused.
    fn break_cycles(&mut self, host: &'a Arc<LogicalPlan>) {
        let key = Arc::as_ptr(host);
        for slot in 0..2 {
            let Some(chain) = self.hosts.get(&key).map(|c| c[slot].clone()) else {
                return;
            };
            let cut = chain.iter().position(|stage| {
                is_join(stage) && self.reaches(stage.children()[1], key, &mut HashSet::default())
            });
            if let Some(cut) = cut {
                let top = chain.last().expect("cut implies a stage");
                let exit = self
                    .tops
                    .remove(&Arc::as_ptr(top))
                    .expect("chain has a top");
                if cut > 0 {
                    self.tops.insert(Arc::as_ptr(chain[cut - 1]), exit);
                }
                self.hosts.get_mut(&key).expect("host recorded")[slot].truncate(cut);
            }
        }
    }

    /// Does evaluating `plan` evaluate `target` — through its children
    /// or through the build sides fused into the chains of a join it
    /// contains?
    fn reaches(&self, plan: &Arc<LogicalPlan>, target: Ptr, seen: &mut HashSet<Ptr>) -> bool {
        let ptr = Arc::as_ptr(plan);
        if ptr == target {
            return true;
        }
        if !seen.insert(ptr) {
            return false;
        }
        let fused_builds = self
            .hosts
            .get(&ptr)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|stage| is_join(stage))
            .map(|stage| stage.children()[1]);
        plan.children()
            .into_iter()
            .chain(fused_builds)
            .any(|c| self.reaches(c, target, seen))
    }
}

fn post_order<'a>(
    plan: &'a Arc<LogicalPlan>,
    seen: &mut HashSet<Ptr>,
    consumers: &mut Consumers<'a>,
    order: &mut Vec<&'a Arc<LogicalPlan>>,
) {
    if !seen.insert(Arc::as_ptr(plan)) {
        return;
    }
    // Subquery plans inside expressions are separate blocks.
    for c in plan.children() {
        consumers.entry(Arc::as_ptr(c)).or_default().push(plan);
        post_order(c, seen, consumers, order);
    }
    order.push(plan);
}

/// The name resolver / physical planner. `scopes` is the stack of outer
/// block schemas (outermost first); a column that does not resolve in
/// the local schema binds against `scopes` from the innermost end,
/// producing [`PhysExpr::Outer`] correlation references.
pub struct Resolver<'a> {
    catalog: &'a Catalog,
    scopes: Vec<Schema>,
    options: PlanOptions,
}

impl<'a> Resolver<'a> {
    /// A fresh resolver with no outer scopes — useful for resolving
    /// standalone (constant or single-relation) expressions.
    pub fn new(catalog: &'a Catalog) -> Resolver<'a> {
        Resolver {
            catalog,
            scopes: Vec::new(),
            options: PlanOptions::default(),
        }
    }
}

/// Per-block planning state: who consumes what, the block's stage
/// chains and the logical → physical memo that preserves DAG sharing.
struct Block<'a> {
    consumers: Consumers<'a>,
    chains: BlockChains<'a>,
    memo: HashMap<Ptr, Arc<PhysNode>>,
}

impl<'a> Resolver<'a> {
    /// Compile one query block (the root plan, or a subquery plan under
    /// the scopes pushed for it).
    fn plan_block(&mut self, plan: &Arc<LogicalPlan>) -> Result<Arc<PhysNode>> {
        let mut consumers = Consumers::default();
        let mut order = Vec::new();
        post_order(plan, &mut HashSet::default(), &mut consumers, &mut order);
        let chains = if self.options.fuse_stage_chains {
            BlockChains::collect(&consumers, order)
        } else {
            BlockChains::default()
        };
        let mut block = Block {
            consumers,
            chains,
            memo: HashMap::default(),
        };
        self.plan_node(plan, &mut block)
    }

    fn plan_node(
        &mut self,
        plan: &Arc<LogicalPlan>,
        block: &mut Block<'_>,
    ) -> Result<Arc<PhysNode>> {
        let ptr = Arc::as_ptr(plan);
        if let Some(done) = block.memo.get(&ptr) {
            return Ok(done.clone());
        }
        // The top stage of a fused chain compiles to the node the
        // chain's rows leave their join through; the stages below it
        // exist only inside that join.
        if let Some(exit) = block.chains.tops.get(&ptr).copied() {
            let node = self.plan_node(exit, block)?;
            block.memo.insert(ptr, node.clone());
            return Ok(node);
        }
        // Schemas come from the planned inputs — a node's is derived
        // once, not once per ancestor.
        let schema_over = |inputs: &[&Arc<PhysNode>]| {
            let schemas: Vec<&Schema> = inputs.iter().map(|n| &n.schema).collect();
            plan.schema_over(&schemas)
        };
        let mut node = match plan.as_ref() {
            LogicalPlan::Scan { table, .. } => {
                let t = self.catalog.get(table)?;
                PhysNode::scan(t.columns().clone(), schema_over(&[]))
            }
            LogicalPlan::Singleton => {
                let one_row = Relation::new(Schema::empty(), vec![Tuple::new(vec![])]);
                PhysNode::scan(TableColumns::new(one_row), Schema::empty())
            }
            LogicalPlan::Filter { input, predicate } => {
                let child = self.plan_node(input, block)?;
                let pred = self.resolve(predicate, &child.schema)?;
                let schema = schema_over(&[&child]);
                PhysNode::new(
                    PhysKind::Filter {
                        input: child,
                        predicate: pred,
                    },
                    schema,
                )
            }
            LogicalPlan::Project { input, exprs } => {
                let child = self.plan_node(input, block)?;
                let exprs = self.resolve_projection(exprs, &child.schema)?;
                let schema = schema_over(&[&child]);
                PhysNode::new(
                    PhysKind::Project {
                        input: child,
                        exprs,
                    },
                    schema,
                )
            }
            LogicalPlan::CrossJoin { left, .. }
            | LogicalPlan::Join { left, .. }
            | LogicalPlan::OuterJoin { left, .. } => {
                let l = self.plan_node(left, block)?;
                let spec = self.join_spec(plan, &l.schema, block)?;
                let pairs = schema_over(&[&l, &spec.right]);
                let chain = self.chain(ptr, 0, &pairs, block)?;
                // The node's schema is that of the rows it hands on.
                let schema = chain.as_ref().map_or(pairs, |c| c.schema.clone());
                PhysNode::new(
                    PhysKind::Join {
                        left: l,
                        spec,
                        chain,
                    },
                    schema,
                )
            }
            LogicalPlan::Aggregate { input, keys, aggs } => {
                let child = self.plan_node(input, block)?;
                let keys = keys
                    .iter()
                    .map(|k| self.resolve(k, &child.schema))
                    .collect::<Result<Vec<_>>>()?;
                let aggs = aggs
                    .iter()
                    .map(|(call, _)| self.resolve_agg(call, &child.schema))
                    .collect::<Result<Vec<_>>>()?;
                let schema = schema_over(&[&child]);
                PhysNode::new(
                    PhysKind::HashAggregate {
                        input: child,
                        keys,
                        aggs,
                    },
                    schema,
                )
            }
            LogicalPlan::BinaryGroup {
                left,
                right,
                left_key,
                right_key,
                cmp,
                agg,
                ..
            } => {
                let l = self.plan_node(left, block)?;
                let r = self.plan_node(right, block)?;
                let lk = self.resolve(left_key, &l.schema)?;
                let rk = self.resolve(right_key, &r.schema)?;
                let agg = self.resolve_agg(agg, &r.schema)?;
                let schema = schema_over(&[&l, &r]);
                let kind = if *cmp == BinOp::Eq {
                    PhysKind::BinaryGroupEq {
                        left: l,
                        right: r,
                        left_key: lk,
                        right_key: rk,
                        agg,
                    }
                } else {
                    if !cmp.is_comparison() {
                        return Err(Error::plan(format!(
                            "binary grouping θ must be a comparison, got {}",
                            cmp.symbol()
                        )));
                    }
                    PhysKind::BinaryGroupTheta {
                        left: l,
                        right: r,
                        left_key: lk,
                        right_key: rk,
                        cmp: *cmp,
                        agg,
                    }
                };
                PhysNode::new(kind, schema)
            }
            LogicalPlan::Map { input, expr, .. } => {
                let child = self.plan_node(input, block)?;
                let e = self.resolve(expr, &child.schema)?;
                let schema = schema_over(&[&child]);
                PhysNode::new(
                    PhysKind::Map {
                        input: child,
                        expr: e,
                    },
                    schema,
                )
            }
            LogicalPlan::Numbering { input, .. } => {
                let child = self.plan_node(input, block)?;
                let schema = schema_over(&[&child]);
                PhysNode::new(PhysKind::Numbering { input: child }, schema)
            }
            LogicalPlan::Distinct { input } => {
                let child = self.plan_node(input, block)?;
                let schema = schema_over(&[&child]);
                PhysNode::new(PhysKind::Distinct { input: child }, schema)
            }
            LogicalPlan::Limit { input, n } => {
                let child = self.plan_node(input, block)?;
                let schema = schema_over(&[&child]);
                PhysNode::new(
                    PhysKind::Limit {
                        input: child,
                        n: *n,
                    },
                    schema,
                )
            }
            LogicalPlan::Alias { input, .. } => {
                let child = self.plan_node(input, block)?;
                let schema = schema_over(&[&child]);
                PhysNode::new(PhysKind::Alias { input: child }, schema)
            }
            LogicalPlan::Sort { input, keys } => {
                let child = self.plan_node(input, block)?;
                let keys = keys
                    .iter()
                    .map(|(e, desc)| Ok((self.resolve(e, &child.schema)?, *desc)))
                    .collect::<Result<Vec<_>>>()?;
                let schema = schema_over(&[&child]);
                PhysNode::new(PhysKind::Sort { input: child, keys }, schema)
            }
            LogicalPlan::Union { left, right } => {
                let l = self.plan_node(left, block)?;
                let r = self.plan_node(right, block)?;
                if l.schema.arity() != r.schema.arity() {
                    return Err(Error::plan(format!(
                        "union arity mismatch: {} vs {}",
                        l.schema.arity(),
                        r.schema.arity()
                    )));
                }
                let schema = schema_over(&[&l, &r]);
                PhysNode::new(PhysKind::UnionAll { left: l, right: r }, schema)
            }
            LogicalPlan::BypassFilter { input, predicate } => {
                let child = self.plan_node(input, block)?;
                let pred = self.resolve(predicate, &child.schema)?;
                let schema = schema_over(&[&child]);
                PhysNode::new(
                    PhysKind::BypassFilter {
                        input: child,
                        predicate: pred,
                    },
                    schema,
                )
            }
            LogicalPlan::BypassJoin {
                left,
                right,
                predicate,
            } => {
                let l = self.plan_node(left, block)?;
                let r = self.plan_node(right, block)?;
                let pairs = schema_over(&[&l, &r]);
                let pred = self.resolve(predicate, &pairs)?;
                let pos = self.chain(ptr, 0, &pairs, block)?;
                let neg = self.chain(ptr, 1, &pairs, block)?;
                PhysNode::new(
                    PhysKind::BypassNLJoin {
                        left: l,
                        right: r,
                        predicate: pred,
                        pos,
                        neg,
                    },
                    pairs,
                )
            }
            LogicalPlan::Stream { source, stream } => {
                let src = self.plan_node(source, block)?;
                let positive = *stream == Stream::Positive;
                // A tapped stream carries what leaves its stage chain.
                let chain = match &src.kind {
                    PhysKind::BypassNLJoin { pos, neg, .. } => {
                        if positive { pos } else { neg }.as_ref()
                    }
                    _ => None,
                };
                let schema = chain.map_or_else(|| src.schema.clone(), |c| c.schema.clone());
                PhysNode::new(
                    PhysKind::Stream {
                        source: src,
                        positive,
                    },
                    schema,
                )
            }
        };
        // The rows of a join leave through the top of its chain: its
        // consumers are theirs.
        let top = match block.chains.hosts.get(&ptr) {
            Some([chain, _]) if is_join(plan) => chain.last().map_or(ptr, |top| Arc::as_ptr(top)),
            _ => ptr,
        };
        if block.consumers.get(&top).is_some_and(|c| c.len() > 1) {
            PhysNode::mark_shared(&mut node);
        }
        block.memo.insert(ptr, node.clone());
        Ok(node)
    }

    fn resolve_projection(
        &mut self,
        exprs: &[(Scalar, Option<String>)],
        input: &Schema,
    ) -> Result<Vec<PhysExpr>> {
        exprs.iter().map(|(e, _)| self.resolve(e, input)).collect()
    }

    /// The [`JoinSpec`] of an inner/outer/cross join node whose probe
    /// rows have the schema `left`: plan its build side, then pick hash
    /// (equi conjuncts) or nested loop.
    fn join_spec(
        &mut self,
        join: &Arc<LogicalPlan>,
        left: &Schema,
        block: &mut Block<'_>,
    ) -> Result<JoinSpec> {
        let (right, predicate, defaults) = match join.as_ref() {
            LogicalPlan::CrossJoin { right, .. } => (right, None, None),
            LogicalPlan::Join {
                right, predicate, ..
            } => (right, Some(predicate), None),
            LogicalPlan::OuterJoin {
                right,
                predicate,
                defaults,
                ..
            } => (right, Some(predicate), Some(defaults)),
            _ => return Err(Error::plan("join_spec: not a join node")),
        };
        let r = self.plan_node(right, block)?;
        let right_schema = &r.schema;
        let defaults = defaults
            .map(|defaults| {
                defaults
                    .iter()
                    .map(|(name, v)| {
                        right_schema
                            .resolve(None, name)
                            .map(|i| (i, v.clone()))
                            .map_err(|e| Error::plan(format!("outerjoin default column: {e}")))
                    })
                    .collect::<Result<Vec<_>>>()
            })
            .transpose()?;
        let on = match predicate {
            None => JoinOn::Loop(None),
            Some(predicate) => {
                let (lk, rk, residual) = self.split_equi_keys(predicate, left, right_schema)?;
                if lk.is_empty() {
                    JoinOn::Loop(Some(self.resolve(predicate, &left.concat(right_schema))?))
                } else {
                    JoinOn::Hash {
                        left_keys: lk,
                        right_keys: rk,
                        residual,
                    }
                }
            }
        };
        Ok(JoinSpec {
            right: r,
            on,
            defaults,
        })
    }

    /// Compile chain `slot` of the join at `host`, if it has one, over
    /// the pairs (`pairs` is their schema) the join emits into it.
    fn chain(
        &mut self,
        host: Ptr,
        slot: usize,
        pairs: &Schema,
        block: &mut Block<'_>,
    ) -> Result<Option<Chain>> {
        let logical = match block.chains.hosts.get(&host) {
            Some(chains) if !chains[slot].is_empty() => chains[slot].clone(),
            _ => return Ok(None),
        };
        let mut stages = Vec::with_capacity(logical.len());
        // The schema of the rows entering the next stage.
        let mut schema = pairs.clone();
        for stage in &logical {
            let mut build = None;
            stages.push(match stage.as_ref() {
                LogicalPlan::Filter { predicate, .. } => {
                    Stage::Filter(self.resolve(predicate, &schema)?)
                }
                LogicalPlan::Project { exprs, .. } => {
                    Stage::Project(self.resolve_projection(exprs, &schema)?)
                }
                LogicalPlan::Map { expr, .. } => Stage::Map(self.resolve(expr, &schema)?),
                _ => {
                    let spec = self.join_spec(stage, &schema, block)?;
                    build = Some(spec.right.clone());
                    Stage::Probe(spec)
                }
            });
            let inputs = std::iter::once(&schema).chain(build.as_ref().map(|b| &b.schema));
            schema = stage.schema_over(&inputs.collect::<Vec<_>>());
        }
        // A column-only Π at the top is where the rows get built: the
        // exit picks its columns straight off the row view.
        if let Some(Stage::Project(exprs)) = stages.last() {
            if let Some(cols) = column_only(exprs) {
                *stages.last_mut().expect("matched above") = Stage::Pick(cols);
            }
        }
        Ok(Some(Chain { stages, schema }))
    }

    /// Split a join predicate into hash keys and a residual: conjuncts of
    /// the form `l = r` where `l` resolves purely against the left schema
    /// and `r` purely against the right (or vice versa) become key pairs.
    fn split_equi_keys(
        &mut self,
        predicate: &Scalar,
        left: &Schema,
        right: &Schema,
    ) -> Result<(Vec<PhysExpr>, Vec<PhysExpr>, Option<PhysExpr>)> {
        let mut lk = Vec::new();
        let mut rk = Vec::new();
        let mut residual = Vec::new();
        for c in predicate.conjuncts() {
            if let Scalar::Binary {
                op: BinOp::Eq,
                left: a,
                right: b,
            } = c
            {
                if !a.contains_subquery() && !b.contains_subquery() {
                    if let (Some(al), Some(br)) =
                        (self.resolve_local(a, left)?, self.resolve_local(b, right)?)
                    {
                        lk.push(al);
                        rk.push(br);
                        continue;
                    }
                    if let (Some(ar), Some(bl)) =
                        (self.resolve_local(a, right)?, self.resolve_local(b, left)?)
                    {
                        lk.push(bl);
                        rk.push(ar);
                        continue;
                    }
                }
            }
            residual.push(c.clone());
        }
        let residual = match Scalar::conjunction(residual) {
            None => None,
            Some(r) => Some(self.resolve(&r, &left.concat(right))?),
        };
        Ok((lk, rk, residual))
    }

    /// Resolve an expression strictly against one schema (no outer
    /// scopes, no subqueries). `Ok(None)` if it references anything else.
    fn resolve_local(&mut self, e: &Scalar, schema: &Schema) -> Result<Option<PhysExpr>> {
        if e.contains_subquery() {
            return Ok(None);
        }
        for c in e.column_refs() {
            match schema.resolve_opt(c.qualifier.as_deref(), &c.name) {
                Ok(Some(_)) => {}
                Ok(None) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        // All refs are local: a plain resolve cannot produce Outer refs.
        Ok(Some(self.resolve_inner(e, schema, false)?))
    }

    /// Resolve an expression against the local schema with correlation
    /// into the enclosing scopes.
    pub fn resolve(&mut self, e: &Scalar, local: &Schema) -> Result<PhysExpr> {
        self.resolve_inner(e, local, true)
    }

    fn resolve_inner(&mut self, e: &Scalar, local: &Schema, allow_outer: bool) -> Result<PhysExpr> {
        Ok(match e {
            Scalar::Column(c) => self.resolve_column(c, local, allow_outer)?,
            Scalar::Literal(v) => PhysExpr::Literal(v.clone()),
            Scalar::Binary { op, left, right } => PhysExpr::Binary {
                op: *op,
                left: Box::new(self.resolve_inner(left, local, allow_outer)?),
                right: Box::new(self.resolve_inner(right, local, allow_outer)?),
            },
            Scalar::Not(x) => PhysExpr::Not(Box::new(self.resolve_inner(x, local, allow_outer)?)),
            Scalar::Neg(x) => PhysExpr::Neg(Box::new(self.resolve_inner(x, local, allow_outer)?)),
            Scalar::IsNull { negated, expr } => PhysExpr::IsNull {
                negated: *negated,
                expr: Box::new(self.resolve_inner(expr, local, allow_outer)?),
            },
            Scalar::Like {
                negated,
                expr,
                pattern,
            } => PhysExpr::Like {
                negated: *negated,
                expr: Box::new(self.resolve_inner(expr, local, allow_outer)?),
                pattern: Box::new(self.resolve_inner(pattern, local, allow_outer)?),
            },
            Scalar::InList {
                negated,
                expr,
                list,
            } => PhysExpr::InList {
                negated: *negated,
                expr: Box::new(self.resolve_inner(expr, local, allow_outer)?),
                list: list
                    .iter()
                    .map(|x| self.resolve_inner(x, local, allow_outer))
                    .collect::<Result<_>>()?,
            },
            Scalar::Subquery(plan) => {
                let (phys, correlated, outer_keys) = self.resolve_subquery(plan, local)?;
                PhysExpr::Subquery {
                    plan: phys,
                    correlated,
                    outer_keys,
                }
            }
            Scalar::Exists { negated, plan } => {
                let (phys, correlated, outer_keys) = self.resolve_subquery(plan, local)?;
                PhysExpr::Exists {
                    negated: *negated,
                    plan: phys,
                    correlated,
                    outer_keys,
                }
            }
            Scalar::InSubquery {
                negated,
                expr,
                plan,
            } => {
                let (phys, correlated, outer_keys) = self.resolve_subquery(plan, local)?;
                PhysExpr::InSubquery {
                    negated: *negated,
                    expr: Box::new(self.resolve_inner(expr, local, allow_outer)?),
                    plan: phys,
                    correlated,
                    outer_keys,
                }
            }
            Scalar::QuantifiedCmp {
                op,
                all,
                expr,
                plan,
            } => {
                let (phys, correlated, outer_keys) = self.resolve_subquery(plan, local)?;
                PhysExpr::QuantifiedCmp {
                    op: *op,
                    all: *all,
                    expr: Box::new(self.resolve_inner(expr, local, allow_outer)?),
                    plan: phys,
                    correlated,
                    outer_keys,
                }
            }
        })
    }

    fn resolve_column(&self, c: &ColumnRef, local: &Schema, allow_outer: bool) -> Result<PhysExpr> {
        if let Some(i) = local.resolve_opt(c.qualifier.as_deref(), &c.name)? {
            return Ok(PhysExpr::Column(i));
        }
        if allow_outer {
            // Innermost enclosing scope first (direct correlation).
            for (k, scope) in self.scopes.iter().rev().enumerate() {
                if let Some(i) = scope.resolve_opt(c.qualifier.as_deref(), &c.name)? {
                    return Ok(PhysExpr::Outer {
                        depth: k + 1,
                        index: i,
                    });
                }
            }
        }
        Err(Error::plan(format!(
            "unknown column `{c}`; local scope: {local}{}",
            if self.scopes.is_empty() {
                String::new()
            } else {
                format!(" ({} outer scope(s) searched)", self.scopes.len())
            }
        )))
    }

    /// Compile a nested plan. Returns the physical plan, whether it is
    /// correlated, and the local-scope key columns usable for
    /// correlation-memoization (empty when any free reference binds
    /// deeper than the direct outer block).
    fn resolve_subquery(
        &mut self,
        plan: &Arc<LogicalPlan>,
        local: &Schema,
    ) -> Result<(Arc<PhysNode>, bool, Vec<usize>)> {
        let free = plan.free_refs();
        let correlated = !free.is_empty();
        let mut outer_keys = Vec::with_capacity(free.len());
        let mut all_direct = true;
        for r in &free {
            match local.resolve_opt(r.qualifier.as_deref(), &r.name)? {
                Some(i) => outer_keys.push(i),
                None => all_direct = false,
            }
        }
        if !all_direct {
            outer_keys.clear();
        }
        self.scopes.push(local.clone());
        let result = self.plan_block(plan);
        self.scopes.pop();
        Ok((result?, correlated, outer_keys))
    }

    fn resolve_agg(&mut self, call: &AggCall, schema: &Schema) -> Result<AggSpec> {
        Ok(AggSpec {
            func: call.func,
            distinct: call.distinct,
            arg: call
                .arg
                .as_deref()
                .map(|a| self.resolve(a, schema))
                .transpose()?,
        })
    }
}
