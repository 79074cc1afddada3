//! The resource governor (DESIGN.md §5f): one numbered checkpoint
//! sequence per query, a byte budget under the deterministic byte model
//! of `bypass_types::govern`, cooperative cancellation and the
//! wall-clock deadline.
//!
//! The sequence is *defined* row by row: a loop ticks once per row it
//! visits and charges a row where it leaves ([`Governor::tick`],
//! [`Governor::charge`]; a charge is a checkpoint too), in arrival
//! order. Checkpoint `k` therefore depends only on plan and data, never
//! on wall time, metrics collection, chunk length or worker count,
//! which is what makes an [`InjectedFault`] at `k` and a budget trip
//! exactly reproducible.
//!
//! [`Governor::tick_n`] is the only function that advances the index.
//! It passes `n` checkpoints arithmetically and stops at the exact
//! index an armed fault names. The σ/σ± chunk loop hands it a run of
//! settled rows through [`Governor::tick_rows`]. A morsel worker's
//! governor only counts: the master applies its [`Tally`] through
//! [`Governor::replay`], or re-runs the morsel itself when the tally
//! [stops](Governor::stops_in) the run (`ExecContext::run_morsels`).

use std::time::{Duration, Instant};

use bypass_types::{CancelToken, Error, FaultKind, InjectedFault, ResourceKind, Result};

use crate::eval::ExecOptions;

/// The clock is read at the first checkpoint and whenever the index
/// crosses a multiple of `1 << DEADLINE_WINDOW_BITS` (4096) —
/// `Instant::now` is the only check that is not free.
const DEADLINE_WINDOW_BITS: u32 = 12;

/// What a worker's governor counted over one morsel: checkpoints
/// passed, net bytes and local peak. Applied in morsel order it is
/// exact — the serial state at a morsel boundary *is* the master's
/// state at merge time, so `peak = max(peak, used + local peak)` is not
/// an approximation.
#[derive(Default)]
pub(crate) struct Tally {
    checkpoints: u64,
    net_bytes: u64,
    peak_bytes: u64,
}

pub(crate) struct Governor {
    fault: Option<InjectedFault>,
    cancel: Option<CancelToken>,
    max_memory_bytes: Option<u64>,
    timeout: Option<Duration>,
    deadline: Option<Instant>,
    /// Something besides the deadline watches the checkpoints (a fault
    /// plan or a cancel token): [`Self::tick_n`] takes its cold half.
    armed: bool,
    checkpoints: u64,
    /// Bytes currently charged to the query.
    used_bytes: u64,
    /// High-water mark of `used_bytes`.
    peak_bytes: u64,
}

impl Governor {
    pub(crate) fn new(options: &ExecOptions) -> Governor {
        Governor {
            fault: options.fault,
            cancel: options.cancel.clone(),
            max_memory_bytes: options.max_memory_bytes,
            timeout: options.timeout,
            deadline: options.timeout.map(|t| Instant::now() + t),
            armed: options.fault.is_some() || options.cancel.is_some(),
            checkpoints: 0,
            used_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// The governor of a speculative morsel worker: it starts at zero,
    /// only counts — the fault plan stays with the master — and shares
    /// the token and the deadline. It keeps the cap as an early abort on
    /// its relative bytes: a relative peak over the cap is a global one
    /// too.
    pub(crate) fn fork(&self) -> Governor {
        Governor {
            fault: None,
            cancel: self.cancel.clone(),
            max_memory_bytes: self.max_memory_bytes,
            timeout: self.timeout,
            deadline: self.deadline,
            armed: self.cancel.is_some(),
            checkpoints: 0,
            used_bytes: 0,
            peak_bytes: 0,
        }
    }

    pub(crate) fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    pub(crate) fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    pub(crate) fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// The cancel token and the deadline, observed without a checkpoint.
    pub(crate) fn poll(&self) -> Result<()> {
        match &self.cancel {
            Some(token) if token.is_cancelled() => Err(Error::cancelled()),
            _ => self.check_deadline(),
        }
    }

    /// One checkpoint.
    #[inline]
    pub(crate) fn tick(&mut self) -> Result<()> {
        self.tick_n(1)
    }

    /// Pass `n` checkpoints. In order of precedence a checkpoint (1)
    /// fires the injected fault whose index it has, (2) observes the
    /// cancel token — polled once per call, at the call's first
    /// checkpoint — and (3) enforces the deadline, amortized over the
    /// window.
    #[inline]
    pub(crate) fn tick_n(&mut self, n: u64) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        if self.armed {
            if let Some((passed, stop)) = self.armed_stop(n) {
                self.checkpoints += passed;
                return Err(stop);
            }
        }
        let before = self.checkpoints;
        self.checkpoints += n;
        // The very first checkpoint also reads the clock, so an
        // already-expired deadline (timeout zero) fires even on queries
        // shorter than the window.
        if before == 0 || before >> DEADLINE_WINDOW_BITS != self.checkpoints >> DEADLINE_WINDOW_BITS
        {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Cold half of [`Self::tick_n`], split out so production runs (no
    /// fault plan, no token) pay one predictable branch per call: the
    /// error the next `n` checkpoints run into, if any, and how many of
    /// them are passed on the way (the failing one included).
    #[cold]
    fn armed_stop(&mut self, n: u64) -> Option<(u64, Error)> {
        let cancelled = self.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        let reach = if cancelled { 1 } else { n };
        if let Some(f) = self.fault_within(reach) {
            return Some((f.checkpoint - self.checkpoints, self.fault_error(f.kind)));
        }
        cancelled.then(|| (1, Error::cancelled()))
    }

    /// The injected fault, if its index is among the next `n` checkpoints.
    fn fault_within(&self, n: u64) -> Option<InjectedFault> {
        self.fault
            .filter(|f| self.checkpoints < f.checkpoint && f.checkpoint <= self.checkpoints + n)
    }

    /// Would the next `checkpoints`, with the bytes in use rising by at
    /// most `peak` on the way, reach the armed fault or the byte cap?
    fn stops_within(&self, checkpoints: u64, peak: u64) -> bool {
        self.fault_within(checkpoints).is_some()
            || self
                .max_memory_bytes
                .is_some_and(|cap| self.used_bytes + peak > cap)
    }

    /// The typed error an injected fault of `kind` raises, built from
    /// the governor's current state. A memory fault reports the bytes in
    /// use as both limit and observed, whatever the budget, so its
    /// payload is the same with or without one.
    fn fault_error(&self, kind: FaultKind) -> Error {
        match kind {
            FaultKind::Memory => {
                Error::resource_exhausted(ResourceKind::Memory, self.used_bytes, self.used_bytes)
            }
            FaultKind::Deadline => {
                Error::resource_exhausted(ResourceKind::Time, self.timeout_millis(), 0)
            }
            FaultKind::Cancel => Error::cancelled(),
        }
    }

    fn timeout_millis(&self) -> u64 {
        self.timeout.map_or(0, |t| t.as_millis() as u64)
    }

    fn check_deadline(&self) -> Result<()> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        let now = Instant::now();
        if now <= deadline {
            return Ok(());
        }
        let limit = self.timeout_millis();
        let over = now.duration_since(deadline).as_millis() as u64;
        Err(Error::resource_exhausted(
            ResourceKind::Time,
            limit,
            limit.saturating_add(over),
        ))
    }

    /// Charge `bytes` of materialized state against the memory budget.
    /// Every charge is also a checkpoint, so faults can be injected (and
    /// cancellation observed) exactly at materialization points, not
    /// just row boundaries.
    #[inline]
    pub(crate) fn charge(&mut self, bytes: u64) -> Result<()> {
        self.grow(bytes)?;
        self.tick_n(1)
    }

    /// The byte half of a charge: apply, enforce the cap.
    #[inline]
    fn grow(&mut self, bytes: u64) -> Result<()> {
        self.used_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.used_bytes);
        match self.max_memory_bytes {
            Some(cap) if self.used_bytes > cap => Err(Error::resource_exhausted(
                ResourceKind::Memory,
                cap,
                self.used_bytes,
            )),
            _ => Ok(()),
        }
    }

    /// Return operator-local scratch (join key arenas, group maps) to
    /// the budget when its scope ends.
    /// Releases are not checkpoints — nothing can fail while freeing.
    #[inline]
    pub(crate) fn release(&mut self, bytes: u64) {
        self.used_bytes = self.used_bytes.saturating_sub(bytes);
    }

    /// The checkpoints of `n` rows whose per-row sequence is `tick`,
    /// then the row's own charges — `charges` of them over the run,
    /// `bytes` in all, with nothing else governor-visible in between —
    /// which `step(governor, row)` makes. One [`Self::tick_n`] call for
    /// the run; only when the fault index or the byte cap falls inside
    /// it are the rows stepped through one by one, to stop at the exact
    /// index with the exact `used_bytes`. Every chunk loop reaches the
    /// governor this way (DESIGN.md §5f).
    pub(crate) fn tick_rows(
        &mut self,
        n: usize,
        charges: usize,
        bytes: u64,
        mut step: impl FnMut(&mut Governor, usize) -> Result<()>,
    ) -> Result<()> {
        let checkpoints = (n + charges) as u64;
        if self.stops_within(checkpoints, bytes) {
            for row in 0..n {
                self.tick_n(1)?;
                step(self, row)?;
            }
            return Ok(());
        }
        // Ticks first: a cancelled token stops the run at its first
        // checkpoint, before any row was charged.
        self.tick_n(checkpoints)?;
        self.grow(bytes)
    }

    /// End a worker's morsel: hand out its tally and start the next
    /// morsel from zero, as a fresh fork would. A worker serves many
    /// morsels of one operator call; one tally per morsel is what lets
    /// the master merge them in morsel order whichever worker ran which.
    pub(crate) fn cut(&mut self) -> Tally {
        Tally {
            checkpoints: std::mem::take(&mut self.checkpoints),
            net_bytes: std::mem::take(&mut self.used_bytes),
            peak_bytes: std::mem::take(&mut self.peak_bytes),
        }
    }

    /// Does the morsel `tally` counts stop the run here — the armed
    /// fault's index among its checkpoints, or its peak over the cap?
    /// Then only running it again on this governor finds the exact
    /// checkpoint and byte count.
    pub(crate) fn stops_in(&self, tally: &Tally) -> bool {
        self.stops_within(tally.checkpoints, tally.peak_bytes)
    }

    /// Apply a worker's tally that does not [stop](Self::stops_in) the
    /// run, as if its morsel had run here.
    pub(crate) fn replay(&mut self, tally: Tally) -> Result<()> {
        self.peak_bytes = self.peak_bytes.max(self.used_bytes + tally.peak_bytes);
        self.used_bytes += tally.net_bytes;
        self.tick_n(tally.checkpoints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor(options: ExecOptions) -> Governor {
        Governor::new(&options)
    }

    /// A governor `at` checkpoints into a run whose deadline has passed
    /// since the clock was last read.
    fn expired_at(at: u64) -> Governor {
        let mut g = governor(ExecOptions::default());
        g.tick_n(at).unwrap();
        g.deadline = Some(Instant::now());
        std::thread::sleep(Duration::from_millis(2));
        g
    }

    fn is_timeout(r: Result<()>) -> bool {
        matches!(
            r,
            Err(Error::ResourceExhausted {
                resource: ResourceKind::Time,
                ..
            })
        )
    }

    #[test]
    fn first_checkpoint_reads_the_clock() {
        assert!(is_timeout(expired_at(0).tick()));
        assert!(is_timeout(expired_at(0).tick_n(7)));
    }

    #[test]
    fn clock_is_read_when_the_index_crosses_a_window_boundary() {
        let mut g = expired_at(1);
        g.tick_n(10).unwrap();
        g.tick_n(4095 - 11).unwrap();
        assert_eq!(g.checkpoints(), 4095);
        assert!(is_timeout(g.tick()));
        // … also by a call that jumps over it.
        let mut g = expired_at(4000);
        g.tick_n(95).unwrap();
        assert!(is_timeout(g.tick_n(2)));
    }

    #[test]
    fn a_call_of_a_whole_window_always_reads_the_clock() {
        assert!(is_timeout(expired_at(1).tick_n(4096)));
        assert!(is_timeout(expired_at(4097).tick_n(5000)));
    }

    /// A run of `n` rows, the `kept` ones charged `bytes` each, on
    /// governors `make` builds: stepped row by row (tick, then charge if
    /// kept), passed by one counted [`Governor::tick_rows`] call, and
    /// counted on a forked worker whose tally the master then merges as
    /// `run_morsels` does — replayed, or the run repeated on the master
    /// if the tally stops it. The same outcome, checkpoints and bytes.
    fn counted_matches_stepping(make: &dyn Fn() -> Governor, n: usize, kept: &[usize]) {
        // A kept row charges 40 bytes; every third row a second 8.
        let charges_of = |row: usize| {
            let first = kept.contains(&row).then_some(40);
            [first, first.filter(|_| row.is_multiple_of(3)).map(|_| 8)]
        };
        let charge = |g: &mut Governor, row: usize| {
            charges_of(row)
                .into_iter()
                .flatten()
                .try_for_each(|bytes| g.charge(bytes))
        };
        let step = |g: &mut Governor| {
            (0..n).try_for_each(|row| {
                g.tick()?;
                charge(g, row)
            })
        };
        let all = (0..n).flat_map(charges_of).flatten();
        let (charges, bytes) = (all.clone().count(), all.sum());
        let mut stepped = make();
        let want = step(&mut stepped);
        let mut counted = make();
        let got = counted.tick_rows(n, charges, bytes, charge);
        let mut merged = make();
        let mut worker = merged.fork();
        let ran = worker.tick_rows(n, charges, bytes, charge);
        let tally = worker.cut();
        let rerun = merged.stops_in(&tally);
        let got_merged = match rerun {
            true => step(&mut merged),
            false => merged.replay(tally).and(ran),
        };
        for (g, got, how) in [(&counted, got, "counted"), (&merged, got_merged, "merged")] {
            let at = format!("{how}: {n} rows, kept {kept:?}, re-run {rerun}");
            assert_eq!(got, want, "{at}");
            assert_eq!(g.checkpoints(), stepped.checkpoints(), "{at}");
            assert_eq!(g.used_bytes(), stepped.used_bytes(), "{at}");
            assert_eq!(g.peak_bytes(), stepped.peak_bytes(), "{at}");
        }
    }

    #[test]
    fn counted_row_ticks_match_stepping_row_by_row() {
        let (n, kept) = (9, [0, 3, 4, 8]);
        // A governor three checkpoints and 100 bytes into its query.
        let started = |options: ExecOptions| {
            let mut g = governor(options);
            g.tick_n(2).unwrap();
            g.charge(100).unwrap();
            g
        };
        // Rows 0 and 3 charge twice, 4 and 8 once: 40, 8, 40, 8, 40, 40.
        let charges = [40, 48, 88, 96, 136, 176];
        // A fault at every index of the run, and one past its end.
        let run = 4..=3 + (n + charges.len()) as u64 + 1;
        for kind in [FaultKind::Memory, FaultKind::Deadline, FaultKind::Cancel] {
            for at in run.clone() {
                let fault = Some(InjectedFault::new(at, kind));
                counted_matches_stepping(
                    &|| {
                        started(ExecOptions {
                            fault,
                            ..Default::default()
                        })
                    },
                    n,
                    &kept,
                );
            }
        }
        // A cap one byte short of each charge, and one the run fits.
        for charged in charges.into_iter().chain([177]) {
            let cap = Some(100 + charged - 1);
            let make = || {
                started(ExecOptions {
                    max_memory_bytes: cap,
                    ..Default::default()
                })
            };
            counted_matches_stepping(&make, n, &kept);
        }
        let token = CancelToken::new();
        token.cancel();
        let cancelled = || {
            let mut g = governor(ExecOptions {
                cancel: Some(token.clone()),
                ..Default::default()
            });
            g.charge(100).unwrap_err();
            g
        };
        counted_matches_stepping(&cancelled, n, &kept);
        // Nothing armed: the counted call's own path.
        counted_matches_stepping(&|| started(ExecOptions::default()), n, &kept);
        counted_matches_stepping(&|| started(ExecOptions::default()), 0, &[]);
    }

    #[test]
    fn pre_cancelled_token_fails_at_the_first_checkpoint_of_a_call() {
        let token = CancelToken::new();
        token.cancel();
        let armed = |fault| {
            governor(ExecOptions {
                cancel: Some(token.clone()),
                fault,
                ..Default::default()
            })
        };
        let mut g = armed(None);
        assert_eq!(g.tick_n(256), Err(Error::Cancelled));
        assert_eq!(g.checkpoints(), 1);
        // A fault on that very checkpoint takes precedence, a later one
        // is never reached.
        let mut g = armed(Some(InjectedFault::new(1, FaultKind::Deadline)));
        assert!(is_timeout(g.tick_n(256)));
        let mut g = armed(Some(InjectedFault::new(2, FaultKind::Deadline)));
        assert_eq!(g.tick_n(256), Err(Error::Cancelled));
        assert_eq!(g.checkpoints(), 1);
    }
}
