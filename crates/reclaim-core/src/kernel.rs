//! The scheme kernel: the plumbing every reclamation scheme shares, written
//! once, under which each scheme supplies only its protocol.
//!
//! See the "Scheme kernel" section of the crate docs for the split between
//! what the kernel owns and what a protocol supplies, and for the hook order
//! on register and exit. In short:
//!
//! * [`SchemeCore`] is the scheme-wide half: config, the seats (a slot
//!   [`Registry`] or round-robin [`ShardedStats`]), the scheme stat stripe, the
//!   [`ParkedChain`] of exited handles' leftovers, the [`HandleCache`], the
//!   [`BudgetGovernor`] and the [`Telemetry`]; it drains the parked chain on drop.
//! * [`HandleCore`] is the per-handle half: the seat, the segment pool, the
//!   budget cursor, the telemetry cursor and the retire counter. It stamps
//!   retires ([`stamp`](HandleCore::stamp)), runs the retire-path ladder
//!   ([`rung`](HandleCore::rung)), frees through [`Pass`], adopts parked
//!   leftovers and performs the exit sequence.
//! * [`HazardRecord`] is the `K`-slot hazard-pointer record HP, Cadence and
//!   QSense publish into.
//!
//! Everything here is generic and `#[inline]`: a scheme's handle is a plain
//! struct embedding a `HandleCore<Self>`, so the hot paths stay monomorphic.

use crate::budget::{BudgetGovernor, BudgetVerdict};
use crate::clock::{Era, Nanos};
use crate::config::SmrConfig;
use crate::handle_cache::HandleCache;
use crate::pad::CachePadded;
use crate::registry::{Registry, RegistryFull, SlotId};
use crate::retired::{DropFn, RetiredPtr};
use crate::scratch::PtrScratch;
use crate::segbag::{ParkedChain, SegBag, SegPool};
use crate::smr::CapacityExhausted;
use crate::stats::{ShardedStats, StatStripe, StatsSnapshot};
use crate::telemetry::{HandleTelemetry, ScanObserver, Telemetry};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

/// Where handles sit: a slot [`Registry`] (capacity-bounded, scannable
/// per-thread records) or registry-less [`ShardedStats`] stripes dealt out
/// round-robin (never exhausted).
pub trait Seating: Send + Sync + 'static {
    /// What a registered handle holds on to.
    type Seat: Copy + Send;
    /// Claims a seat for a registering handle.
    fn try_seat(&self) -> Result<Self::Seat, RegistryFull>;
    /// The statistics stripe the seat's owner writes.
    fn stripe(&self, seat: Self::Seat) -> &StatStripe;
    /// The key the seat's budget-governor stripe derives from.
    fn shard(seat: Self::Seat) -> usize;
    /// Gives the seat back (the last step of a handle's exit).
    fn unseat(&self, seat: Self::Seat);
    /// Sums every seat's stripe (plus seat-level counters) into `snap`.
    fn merge_stats(&self, snap: &mut StatsSnapshot);
}

impl<R: Send + Sync + 'static> Seating for Registry<R> {
    type Seat = SlotId;

    fn try_seat(&self) -> Result<SlotId, RegistryFull> {
        self.try_acquire()
    }

    #[inline]
    fn stripe(&self, seat: SlotId) -> &StatStripe {
        self.stats(seat)
    }

    fn shard(seat: SlotId) -> usize {
        seat.shard()
    }

    fn unseat(&self, seat: SlotId) {
        self.release(seat);
    }

    fn merge_stats(&self, snap: &mut StatsSnapshot) {
        Registry::merge_stats(self, snap);
    }
}

impl Seating for ShardedStats {
    type Seat = usize;

    fn try_seat(&self) -> Result<usize, RegistryFull> {
        Ok(self.assign_stripe())
    }

    #[inline]
    fn stripe(&self, seat: usize) -> &StatStripe {
        ShardedStats::stripe(self, seat)
    }

    fn shard(seat: usize) -> usize {
        seat
    }

    fn unseat(&self, _seat: usize) {}

    fn merge_stats(&self, snap: &mut StatsSnapshot) {
        for i in 0..self.shards() {
            ShardedStats::stripe(self, i).merge_into(snap);
        }
    }
}

/// The scheme-wide half of the kernel (see the module docs). `S` is the
/// seating, `P` the protocol's recyclable per-handle scratch.
pub struct SchemeCore<S, P> {
    /// The configuration the scheme was created with.
    pub config: SmrConfig,
    /// The seats handles register into (usually the per-thread record registry).
    pub seats: S,
    /// Counter stripe for events with no owning seat (parked-chain frees at
    /// drop, EBR's epoch advances).
    pub scheme_stats: CachePadded<StatStripe>,
    /// Leftovers of exited handles: dying handles park, the next flushing
    /// handle adopts, and the drop of this core drains the remainder.
    parked: ParkedChain,
    /// Pools + scratch of exited handles, adopted by the next registrant so
    /// handle churn is allocation-free after the first wave.
    cache: HandleCache<(SegPool, P)>,
    /// Limbo-byte accounting and the budget escalation ladder.
    pub governor: BudgetGovernor,
    /// Telemetry histograms (op latency, scan duration, retire→free delay).
    pub telemetry: Arc<Telemetry>,
    name: &'static str,
}

impl<S: Seating, P> SchemeCore<S, P> {
    /// Creates the core of the scheme called `name`, seating handles in `seats`.
    pub fn new(name: &'static str, config: SmrConfig, seats: S) -> Self {
        Self {
            cache: HandleCache::with_capacity(config.max_threads),
            governor: BudgetGovernor::new(config.limbo_budget, config.clock.clone()),
            telemetry: Arc::new(Telemetry::from_config(&config)),
            config,
            seats,
            scheme_stats: CachePadded::new(StatStripe::new()),
            parked: ParkedChain::new(),
            name,
        }
    }

    /// Disables handle-resource recycling, for a scheme whose exiting handles
    /// never hold anything worth recycling (register and exit then skip the
    /// cache's lock).
    pub fn without_handle_cache(mut self) -> Self {
        self.cache = HandleCache::with_capacity(0);
        self
    }

    /// The scheme's short name (`Smr::name`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `Smr::stats`: every seat's stripe, the scheme stripe, and the governor's
    /// peak limbo bytes.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        self.seats.merge_stats(&mut snap);
        self.scheme_stats.merge_into(&mut snap);
        snap.peak_limbo_bytes = self.governor.peak_bytes();
        snap
    }

    /// `Smr::budget_verdict`.
    pub fn budget_verdict(&self) -> Option<BudgetVerdict> {
        Some(self.governor.verdict())
    }

    /// `Smr::telemetry`.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        Some(&self.telemetry)
    }

    /// Number of handle-resource bundles currently parked for reuse (tests).
    pub fn cached_handle_parts(&self) -> usize {
        self.cache.parked()
    }
}

impl<S, P> Drop for SchemeCore<S, P> {
    fn drop(&mut self) {
        // The core drops with its scheme, i.e. after every handle (each holds
        // an `Arc` of the scheme): no protection is published any more and no
        // thread can reach a parked node.
        // SAFETY: see above — every parked node is unreachable by any thread.
        let (freed, freed_bytes) = unsafe { self.parked.drain_all() };
        self.scheme_stats.add_freed(freed as u64);
        self.scheme_stats.add_freed_bytes(freed_bytes as u64);
        self.governor.note_parked(-(freed_bytes as i64));
    }
}

/// Implemented by each scheme type so its handles can embed a [`HandleCore`]:
/// names the seating and the recyclable scratch, and exposes the scheme's
/// [`SchemeCore`].
pub trait Protocol: Send + Sync + Sized + 'static {
    /// Where handles sit.
    type Seats: Seating;
    /// Per-handle scratch recycled through the handle cache with the pool.
    type Parts: Send;
    /// The scheme's kernel half.
    fn core(&self) -> &SchemeCore<Self::Seats, Self::Parts>;
}

type Seat<K> = <<K as Protocol>::Seats as Seating>::Seat;

/// What the retire-path ladder asks of the protocol after a push
/// ([`HandleCore::rung`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Below the scan threshold and within budget: nothing to do.
    Idle,
    /// `scan_threshold` retires since the last scan: run the ordinary scan.
    Scan,
    /// Budget breach ahead of the threshold (already counted as a forced
    /// scan): scan now, then [`backpressure`](HandleCore::backpressure) if the
    /// scheme is still over budget.
    Forced,
}

/// The per-handle half of the kernel (see the module docs).
pub struct HandleCore<K: Protocol> {
    scheme: Arc<K>,
    seat: Seat<K>,
    /// Recycled segments backing every bag of the handle, so retire, scan and
    /// bag growth stay allocation-free in steady state.
    pub pool: SegPool,
    /// Telemetry recording cursor (stripe, op sampling, retire tick).
    pub tele: HandleTelemetry,
    since_scan: usize,
    budget_stripe: usize,
    /// Local-bytes figure last pushed into the governor (delta-report cursor).
    budget_reported: usize,
}

impl<K: Protocol> HandleCore<K> {
    /// Claims a seat and builds the handle's kernel half, adopting a previous
    /// tenant's pool + scratch when the cache has one and building them with
    /// `fresh` otherwise. Returns the protocol's scratch separately: it lives
    /// next to the protocol state and comes back through [`exit`](Self::exit).
    #[inline]
    pub fn register(
        scheme: &Arc<K>,
        fresh: impl FnOnce(&SmrConfig) -> (SegPool, K::Parts),
    ) -> Result<(Self, K::Parts), CapacityExhausted> {
        let core = scheme.core();
        let seat = core.seats.try_seat().map_err(|e| CapacityExhausted {
            scheme: core.name,
            capacity: e.capacity,
        })?;
        let (pool, parts) = core.cache.adopt().unwrap_or_else(|| fresh(&core.config));
        let handle = Self {
            budget_stripe: BudgetGovernor::stripe_for(K::Seats::shard(seat)),
            tele: HandleTelemetry::attach(&core.telemetry),
            scheme: Arc::clone(scheme),
            seat,
            pool,
            since_scan: 0,
            budget_reported: 0,
        };
        Ok((handle, parts))
    }

    /// The scheme this handle is registered with.
    #[inline]
    pub fn scheme(&self) -> &K {
        &self.scheme
    }

    /// The seat this handle holds.
    #[inline]
    pub fn seat(&self) -> Seat<K> {
        self.seat
    }

    /// The scheme's configuration.
    #[inline]
    pub fn config(&self) -> &SmrConfig {
        &self.scheme.core().config
    }

    /// The scheme's budget governor.
    #[inline]
    pub fn governor(&self) -> &BudgetGovernor {
        &self.scheme.core().governor
    }

    /// This handle's statistics stripe.
    #[inline]
    pub fn stats(&self) -> &StatStripe {
        self.scheme.core().seats.stripe(self.seat)
    }

    /// The scheme clock's "now" (the retire timestamp of the time-based schemes).
    #[inline]
    pub fn now(&self) -> Nanos {
        self.config().clock.now()
    }

    /// Counts one retire of `size` bytes and wraps the node, stamped with
    /// `at` (the scheme's notion of retire time), its birth era and the
    /// handle's telemetry tick.
    ///
    /// # Safety
    ///
    /// The `SmrHandle::retire` contract for `ptr` and `drop_fn`.
    #[inline]
    pub unsafe fn stamp(
        &mut self,
        at: Nanos,
        ptr: *mut u8,
        drop_fn: DropFn,
        birth_era: Era,
        size: NonZeroUsize,
    ) -> RetiredPtr {
        let stats = self.stats();
        stats.add_retired(1);
        stats.add_retired_bytes(size.get() as u64);
        // SAFETY: forwarded from the caller's contract.
        let mut node =
            unsafe { RetiredPtr::with_birth_sized(ptr, drop_fn, at, birth_era, size.get()) };
        node.set_retire_tick(self.tele.retire_tick());
        node
    }

    /// The retire-path ladder, called after each push with the handle's limbo
    /// bytes: every `scan_threshold` retires asks for a scan; in between, a
    /// grain-gated budget observation that finds the scheme over budget asks
    /// for a forced scan (rung 1, counted here).
    #[inline]
    pub fn rung(&mut self, limbo_bytes: usize) -> Rung {
        self.since_scan += 1;
        let core = self.scheme.core();
        if self.since_scan >= core.config.scan_threshold {
            self.since_scan = 0;
            Rung::Scan
        } else if core
            .governor
            .observe(self.budget_stripe, limbo_bytes, &mut self.budget_reported)
        {
            core.governor.count_forced_scan();
            self.since_scan = 0;
            Rung::Forced
        } else {
            Rung::Idle
        }
    }

    /// Restarts the ladder's scan-threshold count (a flush just scanned).
    pub fn reset_scan_count(&mut self) {
        self.since_scan = 0;
    }

    /// Grain-gated budget observation without escalation; `true` if over budget.
    #[inline]
    pub fn observe(&mut self, limbo_bytes: usize) -> bool {
        let governor = &self.scheme.core().governor;
        governor.observe(self.budget_stripe, limbo_bytes, &mut self.budget_reported)
    }

    /// Unconditional budget report of the handle's limbo bytes (after a scan or
    /// drain); `true` if the scheme is still over budget.
    pub fn report(&mut self, limbo_bytes: usize) -> bool {
        let governor = &self.scheme.core().governor;
        governor.report(self.budget_stripe, limbo_bytes, &mut self.budget_reported)
    }

    /// Ladder rung 3: when a forced scan left the scheme `over` budget, take one
    /// bounded yield so stalled threads get CPU time instead of this thread
    /// piling up garbage ever faster.
    pub fn backpressure(&self, over: bool) {
        if over {
            self.governor().count_backpressure();
            std::thread::yield_now();
        }
    }

    /// Opens one reclamation pass; `observe` asks for a telemetry scan
    /// observer (skip it for passes that cannot free anything).
    #[inline]
    pub fn pass(&mut self, observe: bool) -> Pass<'_, K> {
        let scheme: &K = &self.scheme;
        let observer = if observe {
            scheme.core().telemetry.scan_observer(self.tele.stripe())
        } else {
            None
        };
        Pass {
            scheme,
            stats: scheme.core().seats.stripe(self.seat),
            pool: &mut self.pool,
            observer,
            freed: 0,
            freed_bytes: 0,
        }
    }

    /// Takes over the chain parked by exited handles, moving its bytes from
    /// the governor's parked counter back to live accounting (the caller's
    /// next report files them).
    pub fn adopt_parked(&self) -> SegBag {
        let core = self.scheme.core();
        let mut adopted = SegBag::new();
        core.parked.adopt_into(&mut adopted);
        core.governor.note_parked(-(adopted.bytes() as i64));
        adopted
    }

    /// The exit sequence, run last in a handle's drop once the protocol has
    /// neutralized its record: retract the handle's budget report, park
    /// `leftovers` (their bytes move to the governor's parked counter), give
    /// the seat back, and recycle the pool + `parts` to the next registrant.
    pub fn exit(&mut self, leftovers: &mut SegBag, parts: K::Parts) {
        let core = self.scheme.core();
        core.governor
            .note_handle_exit(self.budget_stripe, &mut self.budget_reported);
        core.governor.note_parked(leftovers.bytes() as i64);
        core.parked.park(leftovers);
        core.seats.unseat(self.seat);
        core.cache.park((std::mem::take(&mut self.pool), parts));
    }
}

/// One reclamation pass of a handle: frees through the handle's pool, feeds
/// the telemetry observer, and on [`finish`](Pass::finish) files the freed
/// node and byte counts on the handle's stripe.
pub struct Pass<'a, K> {
    /// The scheme (read-only access for the protocol's predicate inputs).
    pub scheme: &'a K,
    stats: &'a StatStripe,
    pool: &'a mut SegPool,
    observer: Option<ScanObserver<'a>>,
    freed: usize,
    freed_bytes: usize,
}

impl<'a, K> Pass<'a, K> {
    /// The handle's statistics stripe (for the protocol's dispatch counters).
    #[inline]
    pub fn stats(&self) -> &'a StatStripe {
        self.stats
    }

    /// Frees every node of `bag` that `free` accepts, walking while `walk`
    /// holds (the walk stops for good at the first node it rejects). Returns
    /// the number freed.
    ///
    /// # Safety
    ///
    /// `free` must only accept nodes no other thread can still access.
    #[inline]
    pub unsafe fn reclaim(
        &mut self,
        bag: &mut SegBag,
        walk: impl FnMut(&RetiredPtr) -> bool,
        mut free: impl FnMut(&RetiredPtr) -> bool,
    ) -> usize {
        let observer = self.observer.as_ref();
        let before = bag.bytes();
        // SAFETY: forwarded from the caller's contract.
        let freed = unsafe {
            bag.reclaim_if_while(self.pool, walk, |node| {
                let ok = free(node);
                if ok {
                    if let Some(obs) = observer {
                        obs.note_free(node);
                    }
                }
                ok
            })
        };
        self.freed += freed;
        self.freed_bytes += before - bag.bytes();
        freed
    }

    /// Like [`reclaim`](Self::reclaim) over the whole bag, also visiting every
    /// survivor once (to recompute the bag's aggregate bounds).
    ///
    /// # Safety
    ///
    /// Same contract as [`reclaim`](Self::reclaim).
    pub unsafe fn reclaim_visit(
        &mut self,
        bag: &mut SegBag,
        mut free: impl FnMut(&RetiredPtr) -> bool,
        visit: impl FnMut(&RetiredPtr),
    ) -> usize {
        let observer = self.observer.as_ref();
        let before = bag.bytes();
        // SAFETY: forwarded from the caller's contract.
        let freed = unsafe {
            bag.reclaim_if_visit(
                self.pool,
                |node| {
                    let ok = free(node);
                    if ok {
                        if let Some(obs) = observer {
                            obs.note_free(node);
                        }
                    }
                    ok
                },
                visit,
            )
        };
        self.freed += freed;
        self.freed_bytes += before - bag.bytes();
        freed
    }

    /// Frees the whole bag without per-node tests (a wholesale drain).
    ///
    /// # Safety
    ///
    /// No other thread may still access any node of `bag`.
    #[inline]
    pub unsafe fn drain(&mut self, bag: &mut SegBag) -> usize {
        // SAFETY: forwarded from the caller's contract.
        unsafe { self.reclaim(bag, |_| true, |_| true) }
    }

    /// Ends the pass: files the frees on the handle's stripe and records the
    /// pass duration. Returns the number of nodes freed.
    pub fn finish(self) -> usize {
        if self.freed > 0 {
            self.stats.add_freed(self.freed as u64);
            self.stats.add_freed_bytes(self.freed_bytes as u64);
        }
        if let Some(obs) = self.observer {
            obs.finish();
        }
        self.freed
    }
}

/// Per-thread record of `K` single-writer, multi-reader hazard-pointer slots
/// (HP, Cadence, QSense). Publication is a release store; what orders it
/// before the caller's validation load is the protocol's business — HP's
/// `protect` follows it with a `SeqCst` fence, Cadence and QSense with only a
/// compiler fence (the rooster wake-ups bound visibility instead).
pub struct HazardRecord {
    slots: Box<[AtomicPtr<u8>]>,
}

impl HazardRecord {
    /// A record of `k` null slots.
    pub fn new(k: usize) -> Self {
        Self {
            slots: (0..k)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        }
    }

    /// Publishes `ptr` in slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below `K` (`SmrConfig::hp_per_thread`).
    #[inline]
    pub fn set(&self, index: usize, ptr: *mut u8) {
        match self.slots.get(index) {
            Some(slot) => slot.store(ptr, Ordering::Release),
            None => panic!(
                "hazard-pointer index {index} out of range (K = {})",
                self.slots.len()
            ),
        }
    }

    /// The registration-time pool + snapshot scratch of the hazard-pointer
    /// schemes: the pool pre-warmed for the scan threshold (capped, so a
    /// test-sized huge `R` does not balloon registration) and a buffer for
    /// the `N·K` worst case, so even the first scan never allocates.
    pub fn scan_parts(config: &SmrConfig) -> (SegPool, PtrScratch) {
        (
            SegPool::with_node_capacity((config.scan_threshold + 1).min(2048)),
            PtrScratch::with_capacity(config.max_threads * config.hp_per_thread),
        )
    }

    /// Clears every slot.
    pub fn clear_all(&self) {
        for slot in self.slots.iter() {
            slot.store(std::ptr::null_mut(), Ordering::Release);
        }
    }

    /// Appends every non-null slot to `out` (the per-record step of
    /// [`Registry::collect_protected`]).
    pub fn collect_into(&self, out: &mut Vec<*mut u8>) {
        for slot in self.slots.iter() {
            let p = slot.load(Ordering::Acquire);
            if !p.is_null() {
                out.push(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hazard_record_set_clear_collect() {
        let record = HazardRecord::new(3);
        record.set(0, 0x10 as *mut u8);
        record.set(2, 0x30 as *mut u8);
        let mut out = Vec::new();
        record.collect_into(&mut out);
        assert_eq!(out.len(), 2);
        record.clear_all();
        out.clear();
        record.collect_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hazard_record_rejects_an_out_of_range_slot() {
        HazardRecord::new(2).set(2, 0x10 as *mut u8);
    }
}
