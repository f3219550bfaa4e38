//! The Cadence scheme object and per-thread handle.

use crate::rooster::Rooster;
use reclaim_core::retired::DropFn;
use reclaim_core::stats::StatsSnapshot;
use reclaim_core::{
    membarrier, BudgetVerdict, CapacityExhausted, Era, HandleCore, HazardRecord, Pass, Protocol,
    PtrScratch, Registry, Rung, SchemeCore, SegBag, Smr, SmrConfig, SmrHandle, Telemetry,
};
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The Cadence reclamation scheme (the paper's fallback path, usable stand-alone).
///
/// A budget-forced scan still honours the `T + ε` age gate — bypassing it
/// would forfeit exactly the fence-free safety argument Cadence exists for —
/// so under a very coarse `rooster_interval` the budget can only be met by
/// scanning more often, never by freeing younger nodes.
pub struct Cadence {
    core: SchemeCore<Registry<HazardRecord>, PtrScratch>,
    rooster: Mutex<Rooster>,
}

impl Cadence {
    /// Creates a Cadence scheme, spawning its rooster threads.
    pub fn new(config: SmrConfig) -> Arc<Self> {
        let registry = Registry::new(config.max_threads, |_| {
            HazardRecord::new(config.hp_per_thread)
        });
        let rooster = Rooster::spawn(
            config.rooster_threads,
            config.rooster_interval,
            config.use_membarrier,
        );
        Arc::new(Self {
            core: SchemeCore::new("cadence", config, registry),
            rooster: Mutex::new(rooster),
        })
    }

    /// Creates a Cadence scheme with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(SmrConfig::default())
    }

    /// The configuration this scheme was created with.
    pub fn config(&self) -> &SmrConfig {
        &self.core.config
    }

    /// Total rooster wake-ups so far (diagnostics / tests).
    pub fn rooster_wakeups(&self) -> u64 {
        self.rooster
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .wakeup_count()
    }

    /// Snapshots every published hazard pointer into `out`. Callers pass a
    /// reusable scratch buffer sized at registration (`N·K` entries, the maximum
    /// possible), so steady-state scans never allocate.
    fn collect_protected(&self, out: &mut Vec<*mut u8>) {
        self.core
            .seats
            .collect_protected(out, HazardRecord::collect_into);
    }
}

/// Cadence's free rule over one bag (the paper's `scan`, Algorithm 3, lines
/// 14–33): free the retired nodes that are both *old enough* (retired at least
/// `T + ε` ago) and absent from the hazard snapshot `protected`; keep the rest
/// for a later scan. Counts one node-by-node walk.
///
/// The walk stops at the first too-young node: bags are pushed in retirement
/// order, so everything behind it is younger still — the scan is O(aged
/// prefix), not O(bag). (Adopted parked chains spliced behind younger nodes are
/// only delayed by this, never endangered.)
///
/// # Safety
///
/// `protected` must be a sorted snapshot of every hazard pointer, taken after
/// the nodes of `bag` were retired, under a protocol whose hazard stores are
/// globally visible within `T + ε` of being issued (the rooster wake-ups).
pub unsafe fn aged_scan<K: Protocol>(
    pass: &mut Pass<'_, K>,
    bag: &mut SegBag,
    protected: &[*mut u8],
) -> usize {
    pass.stats().add_scan_walk();
    let config = &pass.scheme.core().config;
    let (now, min_age) = (config.clock.now(), config.min_reclaim_age_nanos());
    // SAFETY: (paper Property 1) a node that has been retired for at least
    // T + ε was unlinked before the most recent rooster wake-up, so any hazard
    // pointer that could protect it (published, per Condition 1, while the node
    // was still reachable, i.e. before it was retired) is visible to this scan.
    // If the snapshot does not contain the node, no thread holds a hazardous
    // reference to it and freeing is safe.
    unsafe {
        pass.reclaim(
            bag,
            |node| node.is_old_enough(now, min_age),
            |node| protected.binary_search(&node.addr()).is_err(),
        )
    }
}

impl Protocol for Cadence {
    type Seats = Registry<HazardRecord>;
    type Parts = PtrScratch;

    fn core(&self) -> &SchemeCore<Self::Seats, PtrScratch> {
        &self.core
    }
}

impl Smr for Cadence {
    type Handle = CadenceHandle;

    fn try_register(self: &Arc<Self>) -> Result<CadenceHandle, CapacityExhausted> {
        let (core, scratch) = HandleCore::register(self, HazardRecord::scan_parts)?;
        Ok(CadenceHandle {
            core,
            retired: SegBag::new(),
            scratch,
        })
    }

    fn name(&self) -> &'static str {
        self.core.name()
    }

    fn stats(&self) -> StatsSnapshot {
        self.core.stats()
    }

    fn budget_verdict(&self) -> Option<BudgetVerdict> {
        self.core.budget_verdict()
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        self.core.telemetry()
    }
}

impl Drop for Cadence {
    fn drop(&mut self) {
        // Stop the roosters before the kernel drains the parked nodes.
        self.rooster
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown();
    }
}

/// Per-thread handle for [`Cadence`].
pub struct CadenceHandle {
    core: HandleCore<Cadence>,
    retired: SegBag,
    /// Reusable buffer for hazard-pointer snapshots, sized for the worst case
    /// (`N·K` pointers) at registration so scans are allocation-free.
    scratch: PtrScratch,
}

impl CadenceHandle {
    fn record(&self) -> &HazardRecord {
        self.core.scheme().core.seats.get_mine(self.core.seat())
    }

    /// One scan of the removed-nodes list; returns whether the scheme is still
    /// over budget afterwards.
    fn scan(&mut self) -> bool {
        let mut pass = self.core.pass(true);
        pass.stats().add_scan();
        pass.scheme.collect_protected(&mut self.scratch);
        // SAFETY: the snapshot was just taken, after every retire in the bag,
        // and Cadence's hazard stores are rooster-bounded (see `aged_scan`).
        unsafe { aged_scan(&mut pass, &mut self.retired, &self.scratch) };
        pass.finish();
        self.core.report(self.retired.bytes())
    }
}

impl SmrHandle for CadenceHandle {
    fn begin_op(&mut self) {}

    fn end_op(&mut self) {}

    #[inline]
    fn protect(&mut self, index: usize, ptr: *mut u8) {
        // Publishes the hazard pointer **without a hardware fence** — the
        // defining difference from classic HP (paper Algorithm 3, `assign_HP`,
        // lines 8–12: "No need for a memory barrier here"). Only a compiler
        // fence: the store must not be reordered (by the compiler) after the
        // caller's validation load; hardware-level visibility is provided by
        // the rooster wake-up + deferred-reclamation age bound.
        self.record().set(index, ptr);
        membarrier::light_barrier();
    }

    fn clear_protections(&mut self) {
        self.record().clear_all();
    }

    unsafe fn retire(&mut self, ptr: *mut u8, drop_fn: DropFn, birth_era: Era, size: NonZeroUsize) {
        // Timestamp at removal time — the paper's `free_node_later` records
        // `time_created` on the wrapper node.
        // SAFETY: forwarded from the caller's contract.
        let node = unsafe {
            self.core
                .stamp(self.core.now(), ptr, drop_fn, birth_era, size)
        };
        self.retired.push(&mut self.core.pool, node);
        match self.core.rung(self.retired.bytes()) {
            Rung::Idle => {}
            Rung::Scan => {
                self.scan();
            }
            // Budget breach: the forced scan still enforces the age gate, so
            // if young garbage keeps us over budget, back off — time is the
            // only thing that makes Cadence garbage reclaimable.
            Rung::Forced => {
                let over = self.scan();
                self.core.backpressure(over);
            }
        }
    }

    fn flush(&mut self) {
        // Adopt leftovers of exited threads so they rejoin the scan cycle.
        self.retired.splice(&mut self.core.adopt_parked());
        self.core.reset_scan_count();
        self.scan();
    }

    fn local_in_limbo(&self) -> usize {
        self.retired.len()
    }

    fn local_limbo_bytes(&self) -> usize {
        self.retired.bytes()
    }

    fn telemetry_op_begin(&mut self) -> Option<Instant> {
        self.core.tele.op_begin()
    }

    fn telemetry_op_end(&mut self, started: Instant) {
        self.core.tele.op_end(started);
    }
}

impl Drop for CadenceHandle {
    fn drop(&mut self) {
        self.record().clear_all();
        self.scan();
        let scratch = std::mem::take(&mut self.scratch);
        self.core.exit(&mut self.retired, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merges_all_threads() {
        let scheme = Cadence::new(
            SmrConfig::default()
                .with_max_threads(2)
                .with_hp_per_thread(1)
                .with_rooster_threads(0),
        );
        let a = scheme.register();
        let b = scheme.register();
        a.record().set(0, 0x10 as *mut u8);
        b.record().set(0, 0x20 as *mut u8);
        let mut snapshot = Vec::new();
        scheme.collect_protected(&mut snapshot);
        assert_eq!(snapshot, vec![0x10 as *mut u8, 0x20 as *mut u8]);
        drop(a);
        drop(b);
    }
}
