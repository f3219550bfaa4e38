//! Scheme-level cache of per-handle resources, for thread-pool churn.
//!
//! Handle registration is the one remaining allocation site of the retirement
//! pipeline: a fresh handle builds its [`SegPool`](crate::segbag::SegPool)
//! (pre-warmed to the scan threshold) and its scan scratch buffer (`N·K`
//! pointers). That is fine per *thread lifetime*, but a thread pool that
//! registers and deregisters a handle per task pays it per *task*.
//!
//! [`HandleCache`] closes the gap: a dying handle parks its reusable parts
//! (the pool plus the protocol's scratch; see [`crate::kernel::HandleCore`])
//! on the scheme, and the next `register` on the same scheme adopts them
//! instead of building fresh ones — so after the first wave of registrations,
//! handle churn is allocation-free.
//! This is the resource-side twin of [`ParkedChain`](crate::segbag::ParkedChain)
//! (which moves the *retired nodes* of dying handles for free): the chain moves
//! the work, the cache moves the workspace.
//!
//! The cache is bounded by the scheme's `max_threads`: more parts than there
//! can ever be simultaneous handles would be dead weight, so excess parks are
//! simply dropped (releasing their segments to the allocator).

use std::fmt;
use std::sync::Mutex;

/// A bounded LIFO cache of per-handle resource bundles (see the module docs).
pub struct HandleCache<T> {
    parts: Mutex<Vec<T>>,
    capacity: usize,
}

impl<T> HandleCache<T> {
    /// Creates a cache holding at most `capacity` parked bundles (the scheme's
    /// `max_threads` is the natural choice; `0` disables the cache without
    /// taking its lock). The backing storage is allocated
    /// up front so that `park` itself never touches the allocator — parking
    /// happens on the handle-drop path, which the zero-alloc contract covers.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            parts: Mutex::new(Vec::with_capacity(capacity)),
            capacity,
        }
    }

    /// Parks a dying handle's resource bundle for the next registrant. Bundles
    /// beyond the capacity are dropped (their resources are released normally).
    pub fn park(&self, bundle: T) {
        if self.capacity == 0 {
            return;
        }
        let mut parts = self.parts.lock().unwrap_or_else(|e| e.into_inner());
        if parts.len() < self.capacity {
            parts.push(bundle);
        }
    }

    /// Takes the most recently parked bundle, if any. LIFO keeps the hottest
    /// (most recently touched) segments and buffers in circulation.
    pub fn adopt(&self) -> Option<T> {
        if self.capacity == 0 {
            return None;
        }
        self.parts.lock().unwrap_or_else(|e| e.into_inner()).pop()
    }

    /// Number of bundles currently parked (diagnostics/tests).
    pub fn parked(&self) -> usize {
        self.parts.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl<T> fmt::Debug for HandleCache<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HandleCache")
            .field("parked", &self.parked())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_adopt_is_lifo_within_capacity() {
        let cache = HandleCache::with_capacity(2);
        assert!(cache.adopt().is_none());
        cache.park(1);
        cache.park(2);
        cache.park(3); // over capacity: dropped
        assert_eq!(cache.parked(), 2);
        assert_eq!(cache.adopt(), Some(2));
        assert_eq!(cache.adopt(), Some(1));
        assert!(cache.adopt().is_none());
    }

    #[test]
    fn dropped_over_capacity_bundles_release_their_resources() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let cache = HandleCache::with_capacity(1);
        cache.park(Tracked(Arc::clone(&drops)));
        cache.park(Tracked(Arc::clone(&drops)));
        assert_eq!(drops.load(Ordering::SeqCst), 1, "excess park drops eagerly");
        drop(cache.adopt());
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }
}
