//! The morsel scheduler (DESIGN.md §7): which operator loops fan out,
//! over what, and how their effects come back.
//!
//! An operator arm that loops over one input relation hands that loop to
//! [`ExecContext::run_morsels`]. The serial path runs the loop body over
//! the full range on `self` — byte for byte the pre-parallel code path.
//! The parallel path is taken when the loop's *estimated work* passes
//! the gate: `rows × pairs per row × row weight`, where the row weight
//! of a node is the width of its input rows plus `Σ visits(nested
//! plan)` over the subqueries its expressions re-evaluate per row. The
//! estimate only decides whether to fork, never what is computed. A
//! forked loop splits its range into morsels pulled by scoped threads,
//! each thread on its own context, forked for that fan-out.
//! Workers are speculative: their governor starts every morsel at zero
//! and only counts (see [`Tally`]). The master merges the morsels in
//! order, applying each tally arithmetically; the one morsel whose
//! tally crosses the armed fault index or the byte cap it re-runs
//! itself, serially as the worker ran it, and drops the morsels after
//! it. So checkpoint indices, peak/used bytes, memory-budget trip
//! points and injected-fault landing sites are identical to a serial
//! run, whatever the worker count and whichever worker served which
//! morsel.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bypass_types::{par, Error, Result};

use crate::eval::{ExecContext, ExecCounters, ExecOptions, NodeMetrics};
use crate::govern::Tally;
use crate::node::{JoinOn, PhysKind, PhysNode};

/// Everything a worker hands back to the master per morsel for the
/// in-order merge.
struct MorselOut<P> {
    gov: Tally,
    metrics: Option<HashMap<usize, NodeMetrics>>,
    pending: NodeMetrics,
    /// Inclusive nanos of nested-plan evaluations inside worker
    /// expressions; billed to the master's current metrics frame, as a
    /// serial run would have.
    child_nanos: u128,
    /// Worker counters — the memo ones must be all zero
    /// (debug-asserted): the safety gate keeps memoized subqueries off
    /// workers.
    counters: ExecCounters,
    payload: Result<P>,
    /// Morsel was skipped because a lower-index morsel already failed;
    /// the merge loop never reaches it.
    skipped: bool,
}

impl<P> MorselOut<P> {
    fn skipped() -> MorselOut<P> {
        MorselOut {
            gov: Tally::default(),
            metrics: None,
            pending: NodeMetrics::default(),
            child_nanos: 0,
            counters: ExecCounters::default(),
            payload: Err(Error::execution(
                "morsel skipped after an earlier morsel failed",
            )),
            skipped: true,
        }
    }
}

impl ExecContext {
    /// What one input row of `node` weighs in work units: the values it
    /// holds — a loop's cost per row grows with the width of what it
    /// reads, copies or widens — plus the rows visited by the nested
    /// plans the node's expressions re-evaluate per row. `None` pins the
    /// node to the master, see [`Self::nested_visits`].
    fn row_weight(&mut self, node: &Arc<PhysNode>) -> Option<u64> {
        let ptr = Arc::as_ptr(node) as usize;
        if let Some(&w) = self.row_weights.get(&ptr) {
            return w;
        }
        // Every loop that fans out runs over its first input.
        let width = node.children().first().map_or(1, |c| c.schema.arity());
        let weight = self
            .nested_visits(node)
            .map(|v| v.saturating_add(width.max(1) as u64));
        self.row_weights.insert(ptr, weight);
        weight
    }

    /// Row visits, per input row of `node`, of the nested plans in its
    /// expressions. `None` if one of them — at any depth — would probe
    /// a memo cache: workers hold empty memos, so a worker-side probe
    /// would skew the hit/miss counters and duplicate memoized work.
    /// All other subqueries re-evaluate per row anyway (`run_nested`
    /// touches no shared state).
    fn nested_visits(&self, node: &PhysNode) -> Option<u64> {
        let mut sum = 0u64;
        for sq in node.exprs().into_iter().flat_map(|e| e.subqueries()) {
            let memoized = if sq.correlated {
                self.options.memo_correlated && !sq.outer_keys.is_empty()
            } else {
                self.options.memo_uncorrelated
            };
            if memoized {
                return None;
            }
            sum = sum.saturating_add(self.visits(sq.plan)?);
        }
        Some(sum)
    }

    /// Row visits of one evaluation of a nested plan, estimated bottom-up
    /// from its scan cardinalities: inputs add (a hash join reads each
    /// side once), pair loops multiply, and every operator revisits the
    /// nested plans of its own expressions per row.
    fn visits(&self, plan: &PhysNode) -> Option<u64> {
        let inputs = plan
            .children()
            .into_iter()
            .map(|c| self.visits(c))
            .collect::<Option<Vec<u64>>>()?;
        let sum = |xs: &[u64]| xs.iter().fold(0u64, |a, &b| a.saturating_add(b));
        // A pipeline headed by a nested-loop probe (a ⋈± among them).
        let pair_loop = plan
            .head_probe()
            .is_some_and(|spec| matches!(spec.on, JoinOn::Loop(_)));
        let rows = match &plan.kind {
            PhysKind::Scan { columns } => columns.data().len() as u64,
            // Left × right, plus the build sides of fused probes.
            _ if pair_loop => inputs[0]
                .saturating_mul(inputs[1])
                .saturating_add(sum(&inputs[2..])),
            _ => sum(&inputs),
        };
        Some(rows.saturating_mul(self.nested_visits(plan)?.saturating_add(1)))
    }

    /// Should this operator's loop over `total` rows fan out, each row
    /// visiting `pairs` partners (a nested-loop join: |R|; else 1)? If
    /// so, the work units per input row.
    fn fork_weight(&mut self, node: &Arc<PhysNode>, total: usize, pairs: usize) -> Option<u64> {
        if self.options.threads <= 1 {
            return None;
        }
        let weight = (pairs.max(1) as u64).saturating_mul(self.row_weight(node)?);
        let work = (total as u64).saturating_mul(weight);
        (work > self.options.morsel_rows as u64).then_some(weight)
    }

    /// Fork a worker context: the master's options without nested
    /// fan-out — nothing forks under a forked loop — the same
    /// outer-binding stack (refcount bumps), fresh memo maps that the
    /// safety gate guarantees stay untouched and a forked governor.
    fn fork_worker(&self) -> ExecContext {
        let mut w = ExecContext::new(ExecOptions {
            threads: 1,
            ..self.options.clone()
        });
        w.gov = self.gov.fork();
        w.metrics = self.metrics.is_some().then(HashMap::new);
        // One sentinel frame so nested-plan evaluations inside worker
        // expressions have a parent to bill their inclusive time to;
        // folded into the master's current frame on merge.
        w.child_nanos = vec![0];
        w.outer = self.outer.clone();
        w
    }

    /// End a morsel on a worker: take out everything the master merges
    /// for it, leaving the worker as freshly forked for the next morsel
    /// its thread pulls.
    fn cut_morsel<P>(&mut self, payload: Result<P>) -> MorselOut<P> {
        MorselOut {
            gov: self.gov.cut(),
            metrics: self.metrics.as_mut().map(std::mem::take),
            pending: std::mem::take(&mut self.pending),
            child_nanos: self.child_nanos.first_mut().map_or(0, std::mem::take),
            counters: std::mem::take(&mut self.counters),
            payload,
            skipped: false,
        }
    }

    /// Drive one operator loop over `total` input rows, each visiting
    /// `pairs` partners (a nested-loop join: |R|; else 1), either
    /// serially (the body runs on `self` over the full range — governor
    /// sequence identical to the pre-parallel executor) or across scoped
    /// threads in morsels. The gate and the morsel size count work, not
    /// rows, so a 500 × 500 pair loop fans out although its rows alone
    /// would not. Returns the per-morsel payloads in input order; the
    /// caller concatenates. `serial` is state only a serial loop may
    /// use — the Γ a pipeline folds into as its loop runs: the serial
    /// body takes it, a forked loop leaves it where it is and hands every
    /// morsel `None`, the master's re-run of one included.
    pub(crate) fn run_morsels<P, S, F>(
        &mut self,
        node: &Arc<PhysNode>,
        total: usize,
        pairs: usize,
        serial: &mut Option<S>,
        body: F,
    ) -> Result<Vec<P>>
    where
        P: Send,
        F: Fn(&mut ExecContext, Range<usize>, Option<S>) -> Result<P> + Sync,
    {
        let Some(weight) = self.fork_weight(node, total, pairs) else {
            return Ok(vec![body(self, 0..total, serial.take())?]);
        };
        let threads = self.options.threads;
        // Aim for ~4 morsels per worker (pull-based balancing without
        // tiny fragments), none heavier than the gate.
        let cap = usize::try_from(self.options.morsel_rows as u64 / weight).unwrap_or(usize::MAX);
        let chunk = (total / (threads * 4)).clamp(1, cap.max(1));
        let ranges: Vec<Range<usize>> = (0..total)
            .step_by(chunk)
            .map(|s| s..(s + chunk).min(total))
            .collect();
        let mut workers: Vec<ExecContext> = (0..threads.min(ranges.len()))
            .map(|_| self.fork_worker())
            .collect();
        // Lowest-index failure wins; later morsels bail out early.
        let stop = AtomicUsize::new(usize::MAX);
        let outs: Vec<MorselOut<P>> =
            par::scoped_map_with(&mut workers, &ranges, |w, idx, range| {
                if stop.load(Ordering::Relaxed) < idx {
                    return MorselOut::skipped();
                }
                let mut span = bypass_trace::span("exec.morsel");
                // 0 unless this loop itself runs inside a nested plan.
                span.arg("depth", w.outer.len());
                let payload = body(w, range.clone(), None);
                if payload.is_err() {
                    stop.fetch_min(idx, Ordering::Relaxed);
                }
                w.cut_morsel(payload)
            });
        // In-order merge: governor effects first (authoritative errors
        // — budget trips and injected faults — surface here at their
        // exact serial checkpoint), then the payload.
        let mut payloads = Vec::with_capacity(outs.len());
        for (out, range) in outs.into_iter().zip(ranges) {
            debug_assert!(
                out.skipped
                    || (out.counters.memo_uncorr_hits
                        | out.counters.memo_uncorr_misses
                        | out.counters.memo_corr_hits
                        | out.counters.memo_corr_misses)
                        == 0,
                "morsel worker probed a memo cache despite the safety gate"
            );
            if self.gov.stops_in(&out.gov) {
                // The run stops inside this morsel: run it again here,
                // on one thread as the worker did, to stop at the exact
                // checkpoint with the exact bytes.
                let threads = std::mem::replace(&mut self.options.threads, 1);
                let rerun = body(self, range, None);
                self.options.threads = threads;
                payloads.push(rerun?);
                continue;
            }
            self.gov.replay(out.gov)?;
            let p = out.payload?;
            if let (Some(master), Some(worker)) = (self.metrics.as_mut(), out.metrics) {
                for (ptr, wm) in worker {
                    master.entry(ptr).or_default().merge(&wm);
                }
            }
            self.pending.merge(&out.pending);
            // Workers never probe memo caches (asserted above), but a
            // nested non-memoized subplan evaluated on a worker may
            // contain its own disjunctive chain; its semantic totals
            // fold back commutatively, keeping the counters
            // worker-count independent.
            self.counters.disjunct_evals += out.counters.disjunct_evals;
            self.counters.disjunct_hits += out.counters.disjunct_hits;
            if let Some(frame) = self.child_nanos.last_mut() {
                *frame += out.child_nanos;
            }
            payloads.push(p);
        }
        Ok(payloads)
    }
}
