use std::sync::Arc;

use bypass_algebra::{AggCall, BinOp, ColumnRef, LogicalPlan, Scalar, Stream};
use bypass_catalog::{Catalog, TableColumns};
use bypass_types::{
    DataType, Error, Field, FxHashMap as HashMap, FxHashSet as HashSet, Relation, Result, Schema,
    SortKey, SortOrder, Tuple,
};

use crate::agg::AggSpec;
use crate::expr::{column_only, identity_projection, PhysExpr};
use crate::node::{Chain, Group, JoinOn, JoinSpec, PhysKind, PhysNode, Stage};

/// Physical planning options — the defaults are what the engine always
/// uses; the ablation benchmark and the fused-vs-unfused oracle axis
/// flip the switch off to measure and cross-check its contribution.
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Fold the single-consumer σ, Π and χ above a row loop into that
    /// loop, so only the rows leaving the last of them are materialized
    /// (DESIGN.md §7). Off, every pipeline has one stage.
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
/// bypass DAG structure and build every σ, Π and χ into a pipeline. A
/// rename — a ρ, or a Π that keeps every column in place — compiles to
/// nothing: names are the planner's. The root node alone carries the
/// logical root's names, the only ones a caller sees.
/// A computed Γ key or argument, hash join key or sort key is a hidden
/// column a χ appends ahead of its operator (DESIGN.md §5c).
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
    let Planned { mut node, names } = resolver.plan_block(logical)?;
    Arc::get_mut(&mut node)
        .expect("only its block held the root")
        .schema = names;
    Ok(node)
}

type Ptr = *const LogicalPlan;

/// Does `e` refer to columns of `schema` only — no outer scope, no
/// subquery?
fn local(e: &Scalar, schema: &Schema) -> Result<bool> {
    let mut local = !e.contains_subquery();
    for c in e.column_refs() {
        local &= schema
            .resolve_opt(c.qualifier.as_deref(), &c.name)?
            .is_some();
    }
    Ok(local)
}

/// Does `e` read a column of `schema`, and nothing but `schema`'s?
fn reads(e: &Scalar, schema: &Schema) -> Result<bool> {
    Ok(!e.column_refs().is_empty() && local(e, schema)?)
}

/// A join predicate's conjuncts by where they run.
#[derive(Default)]
struct EquiSplit<'e> {
    /// Hash key pairs `(left, right)`.
    keys: Vec<(&'e Scalar, &'e Scalar)>,
    /// Equalities that read only the build rows: a σ over them.
    build: Vec<Scalar>,
    /// Equalities that read only the probing rows of an inner join: a σ
    /// ahead of the probe.
    probe: Vec<Scalar>,
    residual: Vec<Scalar>,
}

/// Split a join predicate: a conjunct `l = r` where `l` reads columns
/// of the left rows only and `r` of the right rows only (or vice versa)
/// is a key pair `(l, r)`; an equality that reads one side only filters
/// that side — the probing side's only under an inner join, a ⟕ having
/// to pad the rows it fails. The rest, an equality that reads no column
/// among them, is the residual.
fn split_equi_keys<'e>(
    predicate: &'e Scalar,
    left: &Schema,
    right: &Schema,
    outer: bool,
) -> Result<EquiSplit<'e>> {
    let mut split = EquiSplit::default();
    for c in predicate.conjuncts() {
        if let Scalar::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = c
        {
            if reads(a, left)? && reads(b, right)? {
                split.keys.push((&**a, &**b));
                continue;
            }
            if reads(a, right)? && reads(b, left)? {
                split.keys.push((&**b, &**a));
                continue;
            }
            if reads(c, right)? {
                split.build.push(c.clone());
                continue;
            }
            if !outer && reads(c, left)? {
                split.probe.push(c.clone());
                continue;
            }
        }
        split.residual.push(c.clone());
    }
    Ok(split)
}

/// A hidden column: one no column reference can resolve to.
fn hidden() -> Field {
    Field::new("#key", DataType::Unknown)
}

/// `chain` over `input` without fusion: a pipeline per stage — a join's
/// χs and the `Pick` that drops their columns among them.
fn split(input: Arc<PhysNode>, chain: Chain) -> Arc<PhysNode> {
    let last = chain.stages.len() - 1;
    let stages = chain.stages.into_iter().enumerate();
    stages.fold(input, |node, (k, stage)| {
        let schema = match &stage {
            _ if k == last => chain.schema.clone(),
            Stage::Probe(spec) => node.schema.concat(&spec.right.schema),
            Stage::Filter(_) => node.schema.clone(),
            _ => node.schema.extended(hidden()),
        };
        PhysNode::pipeline(node, vec![stage], schema)
    })
}

/// Computed keys and arguments of one operator's input, in the order
/// their hidden columns are appended.
type Maps = Vec<PhysExpr>;

/// The pipelines of one query block (a subquery is its own block).
///
/// A chain climbs from a row loop while the current node has exactly one
/// consumer and that consumer streams it. *Pair sources* — a join no
/// chain absorbed, which heads a pipeline over its left input, and the
/// one `Stream` tapping a stream of a ⋈± — absorb subquery-free σ, Π, χ
/// and joins whose *left* input the chain is. *Row sources* — the one
/// `Stream` tapping a stream of a σ±, and every σ, Π or χ no chain
/// absorbed, which heads a pipeline over its input (and may hold a
/// subquery) — absorb subquery-free σ, Π and χ only: a join over them
/// heads its own pipeline, whose probe sees the whole left relation to
/// restrict its build and read a scan's keys.
#[derive(Default)]
struct BlockChains<'a> {
    /// Host → the logical stage nodes of its chains, bottom-up (`[0]`: a
    /// pipeline head's only chain — the head first — or a bypass
    /// operator's positive stream's, `[1]`: its negative stream's).
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

fn is_row_stage(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } | LogicalPlan::Map { .. }
    )
}

/// Consumers per node of one block (one entry per edge).
type Consumers<'a> = HashMap<Ptr, Vec<&'a Arc<LogicalPlan>>>;

impl<'a> BlockChains<'a> {
    /// `order` lists the block's nodes in post-order: a node that is a
    /// stage of a deeper chain is claimed by it before it could start a
    /// chain of its own. Without `fuse`, chains are the heads alone.
    fn collect(
        consumers: &Consumers<'a>,
        order: Vec<&'a Arc<LogicalPlan>>,
        fuse: bool,
    ) -> BlockChains<'a> {
        let mut chains = BlockChains::default();
        let mut staged: HashSet<Ptr> = HashSet::default();
        let mut bypass_hosts = Vec::new();
        for exit in order {
            if staged.contains(&Arc::as_ptr(exit)) {
                continue;
            }
            let (host, slot, pairs) = match exit.as_ref() {
                p if is_join(p) => (exit, 0, true),
                p if is_row_stage(p) => (exit, 0, false),
                LogicalPlan::Stream { source, stream } => {
                    // A second tap of the same stream would observe the
                    // chain's output instead of the operator's.
                    let taps = consumers[&Arc::as_ptr(source)]
                        .iter()
                        .filter(|c| matches!(c.as_ref(), LogicalPlan::Stream { stream: s, .. } if s == stream))
                        .count();
                    if taps != 1 {
                        continue;
                    }
                    bypass_hosts.push(source);
                    let pairs = matches!(source.as_ref(), LogicalPlan::BypassJoin { .. });
                    (source, (*stream == Stream::Negative) as usize, pairs)
                }
                _ => continue,
            };
            // A pipeline over a relation starts with its head.
            let mut chain = match Arc::ptr_eq(host, exit) {
                true => vec![exit],
                false => vec![],
            };
            let mut cur = exit;
            while let Some([consumer]) = consumers.get(&Arc::as_ptr(cur)).map(Vec::as_slice) {
                if !fuse || !consumer.streams(cur) || !(pairs || is_row_stage(consumer)) {
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

    /// A bypass operator runs when its first stream is tapped, and with
    /// it both chains — including the build sides of their fused joins
    /// (a σ±'s chains have none). A build side that (through any fused
    /// dependency) taps the same bypass join would need its result while
    /// producing it: cut the chain below that stage. The stages above it
    /// compile unfused, each as a pipeline of its own.
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
                for &stage in &chain[cut..] {
                    self.hosts.insert(Arc::as_ptr(stage), [vec![stage], vec![]]);
                }
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

/// A planned logical node: the physical node its rows come from, and
/// the names its consumers resolve against. A rename shares its input's
/// node under names of its own.
#[derive(Clone)]
struct Planned {
    node: Arc<PhysNode>,
    names: Schema,
}

/// Per-block planning state: who consumes what, the block's stage
/// chains, the logical → physical memo that preserves DAG sharing, and
/// the names of the rows each stream of a bypass operator carries.
struct Block<'a> {
    consumers: Consumers<'a>,
    chains: BlockChains<'a>,
    memo: HashMap<Ptr, Planned>,
    streams: HashMap<Ptr, [Schema; 2]>,
}

impl Block<'_> {
    /// `plan`, planned as `node`, has one consumer, which takes `node`
    /// over: the block lets go of it — unless, handed on by a rename, the
    /// node is another consumer's too.
    fn let_go(&mut self, plan: &Arc<LogicalPlan>, node: &Arc<PhysNode>) {
        if self.consumers[&Arc::as_ptr(plan)].len() == 1 && !node.shared {
            self.memo.retain(|_, p| !Arc::ptr_eq(&p.node, node));
        }
    }
}

impl<'a> Resolver<'a> {
    /// Compile one query block (the root plan, or a subquery plan under
    /// the scopes pushed for it).
    fn plan_block(&mut self, plan: &Arc<LogicalPlan>) -> Result<Planned> {
        let mut consumers = Consumers::default();
        let mut order = Vec::new();
        post_order(plan, &mut HashSet::default(), &mut consumers, &mut order);
        let chains = BlockChains::collect(&consumers, order, self.options.fuse_stage_chains);
        let mut block = Block {
            consumers,
            chains,
            memo: HashMap::default(),
            streams: HashMap::default(),
        };
        self.plan_node(plan, &mut block)
    }

    fn plan_node(&mut self, plan: &Arc<LogicalPlan>, block: &mut Block<'_>) -> Result<Planned> {
        let ptr = Arc::as_ptr(plan);
        if let Some(done) = block.memo.get(&ptr) {
            return Ok(done.clone());
        }
        // The top stage of a fused chain compiles to the node the
        // chain's rows leave their host through; the stages below it
        // exist only inside that host.
        if let Some(exit) = block.chains.tops.get(&ptr).copied() {
            if !Arc::ptr_eq(exit, plan) {
                let planned = self.plan_node(exit, block)?;
                block.memo.insert(ptr, planned.clone());
                return Ok(planned);
            }
        }
        // A node's names come from its planned inputs' names — derived
        // once, not once per ancestor.
        let mut inputs = Vec::new();
        for input in plan.children() {
            inputs.push(self.plan_node(input, block)?);
        }
        let mut names = plan.schema_over(&inputs.iter().map(|p| &p.names).collect::<Vec<_>>());
        let mut inputs = inputs.into_iter();
        let mut next = || inputs.next().expect("planned above");
        let mut node = match plan.as_ref() {
            LogicalPlan::Scan { table, .. } => {
                PhysNode::scan(self.catalog.get(table)?.columns().clone())
            }
            LogicalPlan::Singleton => {
                let one_row = Relation::new(Schema::empty(), vec![Tuple::new(vec![])]);
                PhysNode::scan(TableColumns::new(one_row))
            }
            LogicalPlan::Filter { .. }
            | LogicalPlan::Project { .. }
            | LogicalPlan::Map { .. }
            | LogicalPlan::CrossJoin { .. }
            | LogicalPlan::Join { .. }
            | LogicalPlan::OuterJoin { .. } => {
                let input = next();
                let chain = self
                    .chain(ptr, 0, &input.names, block)?
                    .expect("a σ, Π, χ or join no chain absorbed heads its own");
                names = chain.schema.clone();
                self.pipeline(input.node, chain)
            }
            LogicalPlan::Aggregate { input, keys, aggs } => {
                let child = next();
                // Γ is the only consumer of its input: the block lets go of
                // its node, so Γ can take its pipeline over as that
                // pipeline's sink.
                block.let_go(input, &child.node);
                let calls = aggs.iter().map(|(call, _)| call);
                self.aggregate(child.node, &child.names, keys, calls, names.clone())?
            }
            // Γᵇ_{g; l = r; f}(L, R) is Eqv. 1's outer join over a Γ:
            // Π_{L, g}(L ⟕_{l = k; g: f(∅)} Γ_{k: r; g: f}(σ_{r IS NOT NULL}(R))).
            // A right row whose key is NULL joins no left row, so it is
            // never folded — nor can its arguments raise.
            LogicalPlan::BinaryGroup {
                right,
                left_key,
                right_key,
                agg,
                ..
            } => {
                let (l, r) = (next(), next());
                let key_field = Field::new(right_key.to_string(), right_key.data_type(&r.names));
                // Γᵇ alone reads R: the block lets go of R's node, so the
                // σ and Γ can join its pipeline (Self::filtered).
                block.let_go(right, &r.node);
                let key = Box::new(self.resolve(right_key, &r.names)?);
                let not_null = PhysExpr::IsNull {
                    negated: true,
                    expr: key,
                };
                let keyed = self.filtered(r.node, not_null, &r.names);
                let (width, mut maps) = (l.names.arity(), Maps::new());
                let g = names.field(width).clone();
                let schema_g = Schema::new(vec![key_field, g]);
                let keys = std::slice::from_ref(right_key);
                let grouped = self.aggregate(keyed, &r.names, keys, [agg], schema_g)?;
                let defaults = grouped.group().map(|g| vec![(1, g.aggs[0].empty_value())]);
                let probe = Stage::Probe(JoinSpec {
                    on: JoinOn::Hash {
                        left_keys: vec![self.column(left_key, &l.names, &mut maps)?],
                        right_keys: vec![0],
                        residual: None,
                    },
                    right: grouped,
                    defaults,
                });
                let pick = Stage::Pick((0..width).chain([width + maps.len() + 1]).collect());
                let (left, _) = self.map(l.node, &l.names, maps);
                let (stages, schema) = (vec![probe, pick], names.clone());
                self.pipeline(left, Chain { stages, schema })
            }
            LogicalPlan::Numbering { .. } => {
                PhysNode::pipeline(next().node, vec![Stage::Number], names.clone())
            }
            LogicalPlan::Limit { n, .. } => {
                let input = next().node;
                PhysNode::new(PhysKind::Limit { input, n: *n }, names.clone())
            }
            // ρ renames: its input's node under names of its own.
            LogicalPlan::Alias { .. } => next().node,
            // Sort on columns: a computed key is a hidden column a χ
            // appends and a `Pick` drops once the rows are sorted.
            LogicalPlan::Sort { keys, .. } => {
                let child = next();
                let mut maps = Maps::new();
                let mut sort_keys = Vec::with_capacity(keys.len());
                for (e, desc) in keys {
                    let column = self.column(e, &child.names, &mut maps)?;
                    let order = match desc {
                        true => SortOrder::Desc,
                        false => SortOrder::Asc,
                    };
                    sort_keys.push(SortKey { column, order });
                }
                let (input, wide) = self.map(child.node, &child.names, maps);
                let sort = PhysKind::Sort {
                    input,
                    keys: sort_keys,
                };
                let sort = PhysNode::new(sort, wide);
                match sort.schema.arity() > names.arity() {
                    true => {
                        let pick = Stage::Pick((0..names.arity()).collect());
                        PhysNode::pipeline(sort, vec![pick], names.clone())
                    }
                    false => sort,
                }
            }
            // δ and ∪̇ are one union, which takes in the inputs of a ∪̇
            // below it that nothing else reads (a second consumer marks it
            // shared): δ(∪̇(a, b)) and ∪̇(∪̇(a, b), c) each run as one loop.
            LogicalPlan::Distinct { .. } | LogicalPlan::Union { .. } => {
                let mut parts = Vec::new();
                for input in &mut inputs {
                    let (width, arity) = (names.arity(), input.names.arity());
                    if width != arity {
                        let msg = format!("union arity mismatch: {width} vs {arity}");
                        return Err(Error::plan(msg));
                    }
                    let fuse = self.options.fuse_stage_chains && !input.node.shared;
                    match (&input.node.kind, fuse) {
                        (PhysKind::Union { inputs, distinct }, true) if !distinct => {
                            parts.extend(inputs.iter().cloned())
                        }
                        _ => parts.push(input.node),
                    }
                }
                let (inputs, distinct) =
                    (parts, matches!(plan.as_ref(), LogicalPlan::Distinct { .. }));
                PhysNode::new(PhysKind::Union { inputs, distinct }, names.clone())
            }
            LogicalPlan::BypassFilter { predicate, .. } => {
                let child = next();
                let pred = self.resolve(predicate, &child.names)?;
                self.bypass(ptr, child.node, Stage::Filter(pred), &names, block)?
            }
            // A nested loop, whatever the predicate: every pair that fails
            // it is the negative stream's.
            LogicalPlan::BypassJoin { predicate, .. } => {
                let (l, r) = (next(), next());
                let head = Stage::Probe(JoinSpec {
                    right: r.node,
                    on: JoinOn::Loop(Some(self.resolve(predicate, &names)?)),
                    defaults: None,
                });
                self.bypass(ptr, l.node, head, &names, block)?
            }
            LogicalPlan::Stream { source, stream } => {
                let positive = *stream == Stream::Positive;
                // A tapped stream carries what leaves its stage chain.
                if let Some(streams) = block.streams.get(&Arc::as_ptr(source)) {
                    names = streams[!positive as usize].clone();
                }
                let source = next().node;
                PhysNode::new(PhysKind::Stream { source, positive }, names.clone())
            }
        };
        // The rows of a pipeline or a bypass stream leave through the top
        // of its chain: its consumers are theirs.
        let chain = match plan.as_ref() {
            LogicalPlan::Stream { source, stream } => {
                let chains = block.chains.hosts.get(&Arc::as_ptr(source));
                chains.map(|c| &c[(*stream == Stream::Negative) as usize])
            }
            p if is_join(p) || is_row_stage(p) => block.chains.hosts.get(&ptr).map(|c| &c[0]),
            _ => None,
        };
        let top = chain
            .and_then(|c| c.last())
            .map_or(ptr, |top| Arc::as_ptr(top));
        // A scan hands out what exists already; there is nothing to keep
        // for it.
        let scan = matches!(node.kind, PhysKind::Scan { .. });
        if block.consumers.get(&top).is_some_and(|c| c.len() > 1) && !scan && !node.shared {
            // A rename hands on its input's node, which — the rename being
            // its one consumer — only the memo holds.
            block.memo.retain(|_, p| !Arc::ptr_eq(&p.node, &node));
            Arc::get_mut(&mut node).expect("not handed out").shared = true;
        }
        let planned = Planned { node, names };
        block.memo.insert(ptr, planned.clone());
        Ok(planned)
    }

    /// The bypass operator at `host` over `input`, whose head hands on
    /// rows or pairs named `rows`; records the names each stream carries.
    fn bypass(
        &mut self,
        host: Ptr,
        input: Arc<PhysNode>,
        head: Stage,
        rows: &Schema,
        block: &mut Block<'_>,
    ) -> Result<Arc<PhysNode>> {
        let pos = self.chain(host, 0, rows, block)?;
        let neg = self.chain(host, 1, rows, block)?;
        let carried = |c: &Option<Chain>| c.as_ref().map_or(rows, |c| &c.schema).clone();
        block.streams.insert(host, [carried(&pos), carried(&neg)]);
        Ok(PhysNode::bypass(input, head, rows.clone(), pos, neg))
    }

    /// The [`JoinSpec`] of an inner/outer/cross join node whose probe
    /// rows are named `left`: plan the build side, then pick hash (equi
    /// conjuncts) or nested loop. A computed key is a hidden column: a χ
    /// over the build side, or one of the χ stages returned to run ahead
    /// of the probe. An equality that reads one side only is a σ: over
    /// the build side ([`Self::filtered`]), or — an inner join's probing
    /// side — the first of the stages returned. Also returns the names of
    /// the probing and the build rows, hidden columns included.
    fn join_spec(
        &mut self,
        join: &Arc<LogicalPlan>,
        left: &Schema,
        block: &mut Block<'_>,
    ) -> Result<(Vec<Stage>, JoinSpec, Schema, Schema)> {
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
        let Planned { node: mut r, names } = self.plan_node(right, block)?;
        let defaults = defaults
            .map(|defaults| {
                defaults
                    .iter()
                    .map(|(name, v)| {
                        names
                            .resolve(None, name)
                            .map(|i| (i, v.clone()))
                            .map_err(|e| Error::plan(format!("outerjoin default column: {e}")))
                    })
                    .collect::<Result<Vec<_>>>()
            })
            .transpose()?;
        let split = match predicate {
            Some(p) => split_equi_keys(p, left, &names, defaults.is_some())?,
            None => EquiSplit::default(),
        };
        let mut stages = Vec::new();
        if let Some(p) = Scalar::conjunction(split.probe) {
            stages.push(Stage::Filter(self.resolve(&p, left)?));
        }
        if let Some(p) = Scalar::conjunction(split.build) {
            let p = self.resolve(&p, &names)?;
            block.let_go(right, &r);
            r = self.filtered(r, p, &names);
        }
        let (mut left_keys, mut right_keys) = (Vec::new(), Vec::new());
        let (mut left_maps, mut right_maps) = (Maps::new(), Maps::new());
        for (l, r) in split.keys {
            left_keys.push(self.column(l, left, &mut left_maps)?);
            right_keys.push(self.column(r, &names, &mut right_maps)?);
        }
        let left = left_maps
            .iter()
            .fold(left.clone(), |s, _| s.extended(hidden()));
        let (r, names) = self.map(r, &names, right_maps);
        let pair = left.concat(&names);
        let residual = Scalar::conjunction(split.residual)
            .map(|p| self.resolve(&p, &pair))
            .transpose()?;
        let on = match left_keys.is_empty() {
            true => JoinOn::Loop(residual),
            false => JoinOn::Hash {
                left_keys,
                right_keys,
                residual,
            },
        };
        stages.extend(left_maps.into_iter().map(Stage::Map));
        let spec = JoinSpec {
            right: r,
            on,
            defaults,
        };
        Ok((stages, spec, left, names))
    }

    /// Γ over the planned `input`, whose rows are named `names`, grouping
    /// on `keys` with the aggregates `calls` — a computed key or argument
    /// a hidden column a χ appends first ([`Self::map`]). Γ is the sink of
    /// `input`'s pipeline if nothing else holds it ([`PhysNode::aggregate`]);
    /// without fusion a second handle keeps every Γ a pipeline of its own.
    fn aggregate<'c>(
        &mut self,
        input: Arc<PhysNode>,
        names: &Schema,
        keys: &[Scalar],
        calls: impl IntoIterator<Item = &'c AggCall>,
        schema: Schema,
    ) -> Result<Arc<PhysNode>> {
        let mut maps = Maps::new();
        let keys = keys.iter().map(|k| self.column(k, names, &mut maps));
        let keys = keys.collect::<Result<Vec<_>>>()?;
        let mut aggs = Vec::new();
        for call in calls {
            let arg = call.arg.as_deref();
            aggs.push(AggSpec {
                func: call.func,
                distinct: call.distinct,
                arg: arg.map(|a| self.column(a, names, &mut maps)).transpose()?,
            });
        }
        let group = Group {
            keys,
            aggs,
            width: names.arity(),
        };
        let (input, _) = self.map(input, names, maps);
        let _held = (!self.options.fuse_stage_chains).then(|| input.clone());
        Ok(PhysNode::grouped(input, group, schema))
    }

    /// `σ_predicate` over `input`, whose rows are named `names`: Γᵇ's
    /// `key IS NOT NULL`, a join's equality that reads its build side
    /// only. With fusion and an `input` that is a relation pipeline
    /// nothing else holds, σ joins that pipeline's chain as a stage at
    /// its end — ahead of the `Pick` that builds the rows, reading its
    /// columns through it ([`PhysExpr::through`]: no subquery). A σ head's
    /// predicate is left as it is: ANDed into it, an OR head would no
    /// longer compile to a disjunctive chain of kernel terms. Otherwise σ
    /// heads a pipeline of its own over `input`.
    fn filtered(&self, input: Arc<PhysNode>, predicate: PhysExpr, names: &Schema) -> Arc<PhysNode> {
        let input = match Arc::try_unwrap(input) {
            Ok(PhysNode {
                kind:
                    PhysKind::Pipeline {
                        input,
                        chain: Chain { mut stages, schema },
                        neg: None,
                        group: None,
                    },
                shared: false,
                ..
            }) if self.options.fuse_stage_chains => {
                let (at, cols) = match stages.last() {
                    Some(Stage::Pick(cols)) => (stages.len() - 1, cols.clone()),
                    _ => (stages.len(), (0..schema.arity()).collect()),
                };
                if let Some(p) = predicate.through(&cols) {
                    stages.insert(at, Stage::Filter(p));
                    return PhysNode::pipeline(input, stages, schema);
                }
                PhysNode::pipeline(input, stages, schema)
            }
            Ok(node) => Arc::new(node),
            Err(input) => input,
        };
        PhysNode::pipeline(input, vec![Stage::Filter(predicate)], names.clone())
    }

    /// `chain` run over `input`: one pipeline, or without fusion one per
    /// stage. A chain of renames is its input's node.
    fn pipeline(&self, input: Arc<PhysNode>, chain: Chain) -> Arc<PhysNode> {
        match (chain.stages.is_empty(), self.options.fuse_stage_chains) {
            (true, _) => input,
            (false, true) => PhysNode::pipeline(input, chain.stages, chain.schema),
            (false, false) => split(input, chain),
        }
    }

    /// The column of rows named `names` that `e` is: its own if `e` is a
    /// plain column, else the hidden one a χ appends for it (recorded in
    /// `maps`).
    fn column(&mut self, e: &Scalar, names: &Schema, maps: &mut Maps) -> Result<usize> {
        match self.resolve(e, names)? {
            PhysExpr::Column(c) => Ok(c),
            computed => {
                maps.push(computed);
                Ok(names.arity() + maps.len() - 1)
            }
        }
    }

    /// `input` (its rows named `names`) with a hidden column appended per
    /// computed expression of `maps` by a χ, and the names of the rows
    /// that leave. A χ that runs a subquery heads a pipeline, and without
    /// fusion every χ does.
    fn map(&self, mut input: Arc<PhysNode>, names: &Schema, maps: Maps) -> (Arc<PhysNode>, Schema) {
        let (mut names, mut stages) = (names.clone(), Vec::new());
        for e in maps {
            let heads = !self.options.fuse_stage_chains || !e.subquery_plans().is_empty();
            if heads && !stages.is_empty() {
                input = PhysNode::pipeline(input, std::mem::take(&mut stages), names.clone());
            }
            names = names.extended(hidden());
            stages.push(Stage::Map(e));
        }
        if !stages.is_empty() {
            input = PhysNode::pipeline(input, stages, names.clone());
        }
        (input, names)
    }

    /// Compile chain `slot` of the host at `host`, if it has one, over
    /// the rows (named `rows`) that enter its first stage. A rename adds
    /// no stage: it only names the rows anew. Hidden key columns that
    /// reach the top are dropped there by a `Pick`.
    fn chain(
        &mut self,
        host: Ptr,
        slot: usize,
        rows: &Schema,
        block: &mut Block<'_>,
    ) -> Result<Option<Chain>> {
        let logical = match block.chains.hosts.get(&host) {
            Some(chains) if !chains[slot].is_empty() => chains[slot].clone(),
            _ => return Ok(None),
        };
        let mut stages = Vec::with_capacity(logical.len());
        // The names of the rows entering the next stage.
        let mut names = rows.clone();
        for stage in &logical {
            let compiled = match stage.as_ref() {
                LogicalPlan::Filter { predicate, .. } => {
                    Some(Stage::Filter(self.resolve(predicate, &names)?))
                }
                LogicalPlan::Project { exprs, .. } => {
                    let exprs = exprs.iter().map(|(e, _)| self.resolve(e, &names));
                    let exprs = exprs.collect::<Result<Vec<_>>>()?;
                    // A Π that keeps every column in place renames.
                    (!identity_projection(&exprs, names.arity())).then_some(Stage::Project(exprs))
                }
                LogicalPlan::Map { expr, .. } => Some(Stage::Map(self.resolve(expr, &names)?)),
                _ => {
                    let (maps, spec, left, right) = self.join_spec(stage, &names, block)?;
                    stages.extend(maps);
                    names = stage.schema_over(&[&left, &right]);
                    stages.push(Stage::Probe(spec));
                    continue;
                }
            };
            names = stage.schema_over(&[&names]);
            stages.extend(compiled);
        }
        // A column-only Π at the top is where the rows get built: the
        // exit picks its columns straight off the row view.
        if let Some(Stage::Project(exprs)) = stages.last() {
            if let Some(cols) = column_only(exprs) {
                *stages.last_mut().expect("matched above") = Stage::Pick(cols);
            }
        }
        let visible: Vec<usize> = (0..names.arity())
            .filter(|&i| *names.field(i) != hidden())
            .collect();
        if visible.len() < names.arity() {
            names = names.project(&visible);
            stages.push(Stage::Pick(visible));
        }
        Ok(Some(Chain {
            stages,
            schema: names,
        }))
    }

    /// Resolve an expression against the local schema with correlation
    /// into the enclosing scopes.
    pub fn resolve(&mut self, e: &Scalar, local: &Schema) -> Result<PhysExpr> {
        Ok(match e {
            Scalar::Column(c) => self.resolve_column(c, local)?,
            Scalar::Literal(v) => PhysExpr::Literal(v.clone()),
            Scalar::Binary { op, left, right } => PhysExpr::Binary {
                op: *op,
                left: Box::new(self.resolve(left, local)?),
                right: Box::new(self.resolve(right, local)?),
            },
            Scalar::Not(x) => PhysExpr::Not(Box::new(self.resolve(x, local)?)),
            Scalar::Neg(x) => PhysExpr::Neg(Box::new(self.resolve(x, local)?)),
            Scalar::IsNull { negated, expr } => PhysExpr::IsNull {
                negated: *negated,
                expr: Box::new(self.resolve(expr, local)?),
            },
            Scalar::Like {
                negated,
                expr,
                pattern,
            } => PhysExpr::Like {
                negated: *negated,
                expr: Box::new(self.resolve(expr, local)?),
                pattern: Box::new(self.resolve(pattern, local)?),
            },
            Scalar::InList {
                negated,
                expr,
                list,
            } => PhysExpr::InList {
                negated: *negated,
                expr: Box::new(self.resolve(expr, local)?),
                list: list
                    .iter()
                    .map(|x| self.resolve(x, local))
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
                    expr: Box::new(self.resolve(expr, local)?),
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
                    expr: Box::new(self.resolve(expr, local)?),
                    plan: phys,
                    correlated,
                    outer_keys,
                }
            }
        })
    }

    fn resolve_column(&self, c: &ColumnRef, local: &Schema) -> Result<PhysExpr> {
        if let Some(i) = local.resolve_opt(c.qualifier.as_deref(), &c.name)? {
            return Ok(PhysExpr::Column(i));
        }
        // Innermost enclosing scope first (direct correlation).
        for (k, scope) in self.scopes.iter().rev().enumerate() {
            if let Some(i) = scope.resolve_opt(c.qualifier.as_deref(), &c.name)? {
                return Ok(PhysExpr::Outer {
                    depth: k + 1,
                    index: i,
                });
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
        Ok((result?.node, correlated, outer_keys))
    }
}
