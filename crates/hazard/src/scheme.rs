//! The hazard-pointer scheme object and per-thread handle.

use reclaim_core::retired::DropFn;
use reclaim_core::stats::StatsSnapshot;
use reclaim_core::{
    BudgetVerdict, CapacityExhausted, Era, HandleCore, HazardRecord, Protocol, PtrScratch,
    Registry, Rung, SchemeCore, SegBag, Smr, SmrConfig, SmrHandle, Telemetry,
};
use std::num::NonZeroUsize;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Classic hazard-pointer scheme (the paper's **HP** baseline).
///
/// Every thread owns a `K`-slot [`HazardRecord`] in the kernel's registry.
/// HP scans are hazard-gated and therefore safe at any point of the retire
/// path, so a budget breach forces an immediate scan.
pub struct Hazard {
    core: SchemeCore<Registry<HazardRecord>, PtrScratch>,
}

impl Hazard {
    /// Creates a hazard-pointer scheme with the given configuration.
    pub fn new(config: SmrConfig) -> Arc<Self> {
        let registry = Registry::new(config.max_threads, |_| {
            HazardRecord::new(config.hp_per_thread)
        });
        Arc::new(Self {
            core: SchemeCore::new("hp", config, registry),
        })
    }

    /// Creates a hazard-pointer scheme with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(SmrConfig::default())
    }

    /// The configuration this scheme was created with.
    pub fn config(&self) -> &SmrConfig {
        &self.core.config
    }

    /// Snapshots every currently published hazard pointer into `out` — the
    /// `get_protected_nodes` step of the paper's Algorithm 3 / Michael's scan
    /// stage 1. Callers pass a reusable scratch buffer sized at registration
    /// (`N·K` entries, the maximum possible), so steady-state scans never allocate.
    fn collect_protected(&self, out: &mut Vec<*mut u8>) {
        self.core
            .seats
            .collect_protected(out, HazardRecord::collect_into);
    }
}

impl Protocol for Hazard {
    type Seats = Registry<HazardRecord>;
    type Parts = PtrScratch;

    fn core(&self) -> &SchemeCore<Self::Seats, PtrScratch> {
        &self.core
    }
}

impl Smr for Hazard {
    type Handle = HazardHandle;

    fn try_register(self: &Arc<Self>) -> Result<HazardHandle, CapacityExhausted> {
        let (core, scratch) = HandleCore::register(self, HazardRecord::scan_parts)?;
        Ok(HazardHandle {
            core,
            retired: SegBag::new(),
            scratch,
            local_fences: 0,
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

/// Per-thread handle for [`Hazard`].
pub struct HazardHandle {
    core: HandleCore<Hazard>,
    retired: SegBag,
    /// Reusable buffer for hazard-pointer snapshots, sized for the worst case
    /// (`N·K` pointers) at registration so scans are allocation-free.
    scratch: PtrScratch,
    /// Traversal fences issued by this thread since the last flush to shared stats
    /// (kept local so the hot path does not add an extra shared atomic per node).
    local_fences: u64,
}

impl HazardHandle {
    fn record(&self) -> &HazardRecord {
        self.core.scheme().core.seats.get_mine(self.core.seat())
    }

    /// Michael's scan: snapshot every hazard pointer, then free each retired
    /// node absent from the snapshot. Returns whether the scheme is still over
    /// budget afterwards.
    fn scan(&mut self) -> bool {
        let mut pass = self.core.pass(true);
        pass.stats().add_scan();
        // Every HP scan is a per-node walk against the hazard snapshot.
        pass.stats().add_scan_walk();
        pass.scheme.collect_protected(&mut self.scratch);
        let protected: &[*mut u8] = &self.scratch;
        // SAFETY: a node absent from the full hazard-pointer snapshot and already
        // unlinked (guaranteed by the retire contract) is unreachable by any thread:
        // Michael's scan argument. The snapshot is taken *after* the node was
        // retired, so any hazard pointer published before the node became unreachable
        // is visible to this scan (the publisher's fence in `protect` pairs with the
        // acquire loads in `collect_protected`).
        unsafe {
            pass.reclaim(
                &mut self.retired,
                |_| true,
                |node| protected.binary_search(&node.addr()).is_err(),
            )
        };
        pass.finish();
        self.core.report(self.retired.bytes())
    }

    fn publish_fence_count(&mut self) {
        if self.local_fences > 0 {
            self.core.stats().add_traversal_fences(self.local_fences);
            self.local_fences = 0;
        }
    }
}

impl SmrHandle for HazardHandle {
    fn begin_op(&mut self) {
        // Classic HP has no per-operation bookkeeping.
    }

    fn end_op(&mut self) {
        // Protections are cleared lazily by the next protect/clear; nothing to do.
    }

    #[inline]
    fn protect(&mut self, index: usize, ptr: *mut u8) {
        self.record().set(index, ptr);
        // The paper's Algorithm 1, line 3: the store above must become visible before
        // the caller's validation load, otherwise the interleaving of Algorithm 2
        // frees a node the reader is about to use. This fence is exactly the per-node
        // cost that Cadence removes.
        fence(Ordering::SeqCst);
        self.local_fences += 1;
    }

    fn clear_protections(&mut self) {
        self.record().clear_all();
    }

    unsafe fn retire(&mut self, ptr: *mut u8, drop_fn: DropFn, birth_era: Era, size: NonZeroUsize) {
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
            // Budget breach: if hazard pointers still pin us over budget after
            // the forced scan, back off so stalled readers can move on.
            Rung::Forced => {
                let over = self.scan();
                self.core.backpressure(over);
            }
        }
    }

    fn flush(&mut self) {
        self.publish_fence_count();
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

impl Drop for HazardHandle {
    fn drop(&mut self) {
        self.publish_fence_count();
        // This thread is done traversing: its own protections can go away.
        self.record().clear_all();
        // Last chance to free what other threads no longer protect; whatever
        // they still protect is parked by the kernel's exit.
        self.scan();
        let scratch = std::mem::take(&mut self.scratch);
        self.core.exit(&mut self.retired, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protected_snapshot_is_sorted_and_deduplicated() {
        let scheme = Hazard::new(
            SmrConfig::default()
                .with_max_threads(2)
                .with_hp_per_thread(2),
        );
        let h1 = scheme.register();
        let h2 = scheme.register();
        h1.record().set(0, 0x300 as *mut u8);
        h1.record().set(1, 0x100 as *mut u8);
        h2.record().set(0, 0x300 as *mut u8);
        let mut snapshot = Vec::new();
        scheme.collect_protected(&mut snapshot);
        assert_eq!(snapshot, vec![0x100 as *mut u8, 0x300 as *mut u8]);
        drop(h1);
        drop(h2);
    }

    #[test]
    fn scheme_name_and_config_accessors() {
        let scheme = Hazard::with_defaults();
        assert_eq!(scheme.name(), "hp");
        assert!(scheme.config().hp_per_thread >= 1);
    }
}
