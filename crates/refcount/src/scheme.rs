//! The reference-counting scheme object and per-thread handle.

use crate::table::{CountTable, DEFAULT_BUCKETS};
use reclaim_core::retired::DropFn;
use reclaim_core::stats::StatsSnapshot;
use reclaim_core::{
    BudgetVerdict, CapacityExhausted, Era, HandleCore, Protocol, PtrScratch, Rung, SchemeCore,
    SegBag, SegPool, ShardedStats, Smr, SmrConfig, SmrHandle, Telemetry,
};
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Instant;

/// Reference-counting reclamation (the paper's related-work baseline, §8
/// "Reference counting" [9, 12, 15, 30]).
///
/// Every protected node access performs an atomic increment on a shared counter and
/// every hand-over-hand step performs the matching decrement; a retired node may be
/// freed once its counter is zero. The counters live in a shared [`CountTable`]
/// indexed by node address rather than inside the nodes (see that module's docs for
/// why the substitution is faithful). The scheme exists to reproduce the related-work
/// claim that RC's per-access read-modify-write makes it the slowest of the classic
/// techniques on read-mostly workloads.
///
/// RC is registry-less: its kernel seats handles on round-robin
/// [`ShardedStats`] stripes, so registration never exhausts. The counter check
/// is safe at any point, so the budget ladder is the standard one: forced scan
/// on the retire path, then backpressure while a referenced (or colliding)
/// node keeps its bucket pinned above the budget.
pub struct RefCount {
    core: SchemeCore<ShardedStats, PtrScratch>,
    table: CountTable,
}

impl RefCount {
    /// Creates a reference-counting scheme with the given configuration.
    pub fn new(config: SmrConfig) -> Arc<Self> {
        Self::with_buckets(config, DEFAULT_BUCKETS)
    }

    /// Creates a scheme with an explicit counter-table size (tests use small tables
    /// to exercise collisions).
    pub fn with_buckets(config: SmrConfig, buckets: usize) -> Arc<Self> {
        let stats = ShardedStats::new(config.max_threads);
        Arc::new(Self {
            core: SchemeCore::new("rc", config, stats),
            table: CountTable::new(buckets),
        })
    }

    /// Creates a scheme with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(SmrConfig::default())
    }

    /// The configuration this scheme was created with.
    pub fn config(&self) -> &SmrConfig {
        &self.core.config
    }

    /// The shared counter table (exposed for tests).
    pub fn table(&self) -> &CountTable {
        &self.table
    }
}

impl Protocol for RefCount {
    type Seats = ShardedStats;
    type Parts = PtrScratch;

    fn core(&self) -> &SchemeCore<ShardedStats, PtrScratch> {
        &self.core
    }
}

impl Smr for RefCount {
    type Handle = RefCountHandle;

    fn try_register(self: &Arc<Self>) -> Result<RefCountHandle, CapacityExhausted> {
        // Pre-warm the pool for the scan threshold (capped) so even the first
        // bag fill recycles instead of allocating.
        let (core, mut slots) = HandleCore::register(self, |config| {
            (
                SegPool::with_node_capacity((config.scan_threshold + 1).min(2048)),
                PtrScratch::with_capacity(config.hp_per_thread),
            )
        })?;
        // Fresh buffers are empty; adopted ones are already all-null with the
        // right length (the previous owner's drop ran `clear_protections`).
        // Either way this is in-capacity and allocation-free.
        slots.clear();
        slots.resize(self.core.config.hp_per_thread, std::ptr::null_mut());
        Ok(RefCountHandle {
            core,
            slots,
            retired: SegBag::new(),
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

/// Per-thread handle for [`RefCount`].
pub struct RefCountHandle {
    core: HandleCore<RefCount>,
    /// The pointer currently announced through each protection slot (so the matching
    /// decrement can be issued when the slot is overwritten or cleared). Stored
    /// in a [`PtrScratch`] so the buffer can be recycled through the kernel's
    /// handle cache; it is all-null whenever it changes hands.
    slots: PtrScratch,
    retired: SegBag,
}

impl RefCountHandle {
    /// Frees every retired node whose counter bucket is currently zero, then
    /// reports the surviving bytes. Returns `true` when limbo remains over the
    /// configured budget even after the scan.
    fn scan(&mut self) -> bool {
        let mut pass = self.core.pass(true);
        pass.stats().add_scan();
        // Every sweep tests each node's counter bucket individually.
        pass.stats().add_scan_walk();
        let table = &pass.scheme.table;
        // SAFETY: a retired node is already unlinked. If its counter bucket is zero
        // then no thread currently announces a reference that could cover it; a
        // thread announcing a reference *after* this load must re-validate the node's
        // reachability (rule 2 of the integration methodology) and will find it
        // unlinked, so it can never dereference the node. The SeqCst counter
        // operations on both sides give the total order this argument needs — the
        // same structure as Michael's hazard-pointer scan proof, with "counter
        // bucket is non-zero" in place of "a hazard pointer matches".
        unsafe {
            pass.reclaim(
                &mut self.retired,
                |_| true,
                |node| table.is_unreferenced(node.addr()),
            )
        };
        pass.finish();
        self.core.report(self.retired.bytes())
    }

    fn release_slot(&mut self, index: usize) {
        let old = self.slots[index];
        if !old.is_null() {
            self.core.scheme().table.release(old);
            self.slots[index] = std::ptr::null_mut();
        }
    }
}

impl SmrHandle for RefCountHandle {
    fn begin_op(&mut self) {}

    fn end_op(&mut self) {
        // Holding announcements across operations would only delay reclamation, but
        // dropping them eagerly keeps the counters tight and matches how an intrusive
        // RC implementation drops its references when local variables go out of
        // scope.
        self.clear_protections();
    }

    #[inline]
    fn protect(&mut self, index: usize, ptr: *mut u8) {
        assert!(
            index < self.slots.len(),
            "protection index {index} out of range (K = {})",
            self.slots.len()
        );
        let old = self.slots[index];
        if old == ptr {
            return;
        }
        let table = &self.core.scheme().table;
        if !ptr.is_null() {
            // Announce the new reference *before* dropping the old one so that a
            // hand-over-hand traversal never leaves a window where neither node is
            // covered.
            table.acquire(ptr);
        }
        if !old.is_null() {
            table.release(old);
        }
        self.slots[index] = ptr;
    }

    fn clear_protections(&mut self) {
        for index in 0..self.slots.len() {
            self.release_slot(index);
        }
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
            // Over the byte budget before the node-count threshold fired —
            // large payloads. If the bytes stay pinned (a referenced or
            // colliding node), shed a little retire-side speed.
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

impl Drop for RefCountHandle {
    fn drop(&mut self) {
        self.clear_protections();
        self.scan();
        // The (all-null, post-`clear_protections`) slot buffer is recycled
        // with the pool.
        let slots = std::mem::take(&mut self.slots);
        self.core.exit(&mut self.retired, slots);
    }
}

#[cfg(test)]
// Sanctioned raw-protocol site: these tests exercise the scheme's own
// `protect`/retire interface below the guard layer.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use reclaim_core::retire_box;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tracked(drops: &Arc<AtomicUsize>) -> *mut Tracked {
        Box::into_raw(Box::new(Tracked(Arc::clone(drops))))
    }

    #[test]
    fn protect_and_clear_balance_the_counters() {
        let scheme = RefCount::new(SmrConfig::default().with_hp_per_thread(2));
        let mut handle = scheme.register();
        let a = 0x1000 as *mut u8;
        let b = 0x2000 as *mut u8;
        handle.protect(0, a);
        handle.protect(1, b);
        assert_eq!(scheme.table().count(a), 1);
        assert_eq!(scheme.table().count(b), 1);
        // Re-protecting the same pointer is idempotent.
        handle.protect(0, a);
        assert_eq!(scheme.table().count(a), 1);
        // Moving a slot to a new pointer releases the old one.
        handle.protect(0, b);
        assert!(scheme.table().is_unreferenced(a));
        assert_eq!(scheme.table().count(b), 2);
        handle.clear_protections();
        assert!(scheme.table().is_unreferenced(b));
    }

    #[test]
    fn a_referenced_node_is_not_freed() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = RefCount::new(
            SmrConfig::default()
                .with_hp_per_thread(2)
                .with_scan_threshold(1),
        );
        let mut reader = scheme.register();
        let mut deleter = scheme.register();
        let node = tracked(&drops);
        reader.protect(0, node.cast());
        // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
        unsafe { retire_box(&mut deleter, node) };
        deleter.flush();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "referenced node must survive"
        );
        reader.clear_protections();
        deleter.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unreferenced_nodes_are_freed_at_the_scan_threshold() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = RefCount::new(
            SmrConfig::default()
                .with_hp_per_thread(1)
                .with_scan_threshold(8),
        );
        let mut handle = scheme.register();
        for _ in 0..8 {
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
        }
        // The 8th retire crossed the threshold and triggered a scan.
        assert_eq!(drops.load(Ordering::SeqCst), 8);
        let snap = scheme.stats();
        assert_eq!(snap.retired, 8);
        assert_eq!(snap.freed, 8);
        assert!(snap.scans >= 1);
    }

    #[test]
    fn colliding_pointers_only_delay_reclamation() {
        let drops = Arc::new(AtomicUsize::new(0));
        // A two-bucket table forces collisions.
        let scheme = RefCount::with_buckets(
            SmrConfig::default()
                .with_hp_per_thread(1)
                .with_scan_threshold(1),
            2,
        );
        let mut reader = scheme.register();
        let mut deleter = scheme.register();
        let protected = tracked(&drops);
        let doomed = tracked(&drops);
        reader.protect(0, protected.cast());
        // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
        unsafe { retire_box(&mut deleter, doomed) };
        deleter.flush();
        // Whether or not `doomed` collided with `protected`, it must not be freed
        // unsafely; once the reader lets go, everything can be reclaimed.
        reader.clear_protections();
        deleter.flush();
        // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
        unsafe { retire_box(&mut deleter, protected) };
        deleter.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn handle_drop_parks_still_referenced_nodes() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = RefCount::new(
            SmrConfig::default()
                .with_hp_per_thread(1)
                .with_scan_threshold(1_000),
        );
        let mut reader = scheme.register();
        let node = tracked(&drops);
        reader.protect(0, node.cast());
        {
            let mut deleter = scheme.register();
            // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
            unsafe { retire_box(&mut deleter, node) };
            // deleter exits while the reader still references the node
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(reader);
        drop(scheme);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "scheme drop frees parked nodes"
        );
    }

    #[test]
    fn scheme_reports_name() {
        let scheme = RefCount::with_defaults();
        assert_eq!(scheme.name(), "rc");
        assert!(scheme.config().hp_per_thread >= 1);
    }
}
