//! Deterministic interleaving regression tests for the structures'
//! validate→CAS windows, driven by the `reclaim-check` explorer:
//!
//! 1. skip-list upper-level re-link (a complete remove inside insert's
//!    validate→CAS window at `skiplist::insert::upper::pre_link_cas`), under
//!    HP, Cadence, HE and QSense — the four schemes the pre-versioning bug
//!    broke;
//! 2. list successor removal and 3. list predecessor removal inside
//!    `list::insert::pre_link_cas`;
//! 4. BST target-leaf removal and 5. BST parent splice-out inside
//!    `bst::insert::pre_link_cas`.
//!
//! Each test asks the explorer to *find* a schedule in which the remover's
//! retire crosses the inserter's open window, then replays the recorded
//! schedule and lets the scenario's invariant check (and, with the
//! `check-oracle` feature, the shadow heap) judge the outcome; the list and
//! BST tests also assert the inserter's stale CAS failed and retried. The
//! fixed structures must survive every one. The explorer installs the process-global
//! `lockfree_ds::interleave` scheduler and serializes explorations itself.

use lockfree_ds::{
    HarrisMichaelList, LockFreeBst, LockFreeSkipList, BST_HP_SLOTS, LIST_HP_SLOTS,
    SKIPLIST_HP_SLOTS,
};
use reclaim_check::{schedule_of, Explorer, Scenario, ScenarioRun, Step, SPAWN_POINT};
use reclaim_core::{Smr, SmrConfig, SmrHandle};
use std::sync::Arc;

/// A scheme constructor (`Hazard::new`, `Cadence::new`, ...).
type Make<S> = fn(SmrConfig) -> Arc<S>;

fn config(hp_slots: usize) -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(8)
        .with_hp_per_thread(hp_slots)
        .with_scan_threshold(1)
        .with_quiescence_threshold(1)
        .with_fallback_threshold(4)
        .with_rooster_threads(0)
}

/// True if the trace contains the forced window: thread 0 parks at
/// `window_point` and, before it is granted again, thread 1 is granted at
/// every one of `inside_points` (the grants that run the remove's mark,
/// unlink and retire).
///
/// Grants are fully serialized, so every thread-1 step strictly between two
/// thread-0 steps runs while thread 0 sits parked at the later step's point.
fn window_crossed(trace: &[Step], window_point: &str, inside_points: &[&str]) -> bool {
    let mut last_t0: Option<usize> = None;
    for (i, step) in trace.iter().enumerate() {
        if step.thread == 0 {
            if step.point == window_point {
                if let Some(a) = last_t0 {
                    let inside = &trace[a + 1..i];
                    if inside_points
                        .iter()
                        .all(|p| inside.iter().any(|s| s.thread == 1 && s.point == *p))
                    {
                        return true;
                    }
                }
            }
            last_t0 = Some(i);
        }
    }
    false
}

/// Asserts thread 0 reached the CAS pause point `point` at least twice in
/// `trace`: its first (stale) CAS failed and the operation retried.
fn assert_retried(trace: &[Step], point: &str) {
    let reached = trace
        .iter()
        .filter(|s| s.thread == 0 && s.point == point)
        .count();
    assert!(
        reached >= 2,
        "the stale CAS at {point} must fail and retry (arrivals = {reached})"
    );
}

/// Finds a schedule matching the window predicate, replays it from the
/// recorded thread-id sequence, checks the replayed trace still crosses the
/// window, and returns it.
fn find_and_replay(
    scenario: &Scenario,
    window_point: &'static str,
    inside_points: &[&'static str],
) -> Vec<Step> {
    let explorer = Explorer::new();
    let trace = explorer
        .explore_until(scenario, |t| window_crossed(t, window_point, inside_points))
        .unwrap_or_else(|failure| panic!("{failure}"))
        .unwrap_or_else(|| {
            panic!("no schedule crosses {inside_points:?} through the {window_point} window within the preemption bound")
        });

    // The recorded schedule replays deterministically and stays clean — on
    // the pre-versioning structures this exact schedule was the UAF.
    let replayed = explorer
        .replay(scenario, &schedule_of(&trace))
        .unwrap_or_else(|failure| panic!("replay of the recorded schedule failed: {failure}"));
    assert_eq!(replayed, trace, "prefix replay reproduces the found trace");
    assert!(
        window_crossed(&replayed, window_point, inside_points),
        "the replayed schedule still crosses the window"
    );
    replayed
}

/// Thread 0 inserts a height-2 node; thread 1 runs a complete remove of the
/// same key. The dangerous schedule parks the inserter between its upper-level
/// validation and CAS while the remove marks, sweeps and retires the node.
fn skiplist_relink_scenario<S: Smr>(name: &'static str, make: Make<S>) -> Scenario {
    Scenario::new(format!("replayed/skiplist-relink/{name}"), move || {
        let set = Arc::new(LockFreeSkipList::<u64, S>::new(make(config(
            SKIPLIST_HP_SLOTS,
        ))));
        let mut h = set.register();
        assert!(set.insert_with_height(5, 1, &mut h));
        drop(h);
        let inserter = Arc::clone(&set);
        let remover = Arc::clone(&set);
        ScenarioRun::new()
            .thread(move || {
                let mut h = inserter.register();
                assert!(
                    inserter.insert_with_height(10, 2, &mut h),
                    "10 is unclaimed"
                );
                h.flush();
            })
            .thread(move || {
                // May run before the level-0 link: then there is nothing to
                // remove yet and the schedule is not the one we search for.
                let mut h = remover.register();
                let _ = remover.remove(&10, &mut h);
                h.flush();
            })
            .check(move || {
                // The invariant the race breaks: once `remove` has retired
                // the victim, no level may ever link it again — a reader
                // traversing the upper level could otherwise validate a
                // protection for (and dereference) freed memory.
                let level0 = set.level_addrs(0);
                let level1 = set.level_addrs(1);
                assert!(
                    level1.iter().all(|node| level0.contains(node)),
                    "{name}: a node absent from level 0 was re-linked at level 1 by a \
                     stale insert CAS (upper-level re-link race): level 0 = {level0:x?}, \
                     level 1 = {level1:x?}"
                );
                let mut h = set.register();
                assert!(set.contains(&5, &mut h), "bystander survives");
                // 10's membership depends on whether the remove caught the
                // insert; the set must merely be consistent about it.
                let present = set.contains(&10, &mut h);
                assert_eq!(set.len(&mut h), 1 + usize::from(present));
            })
    })
}

fn assert_skiplist_relink_replays_clean<S: Smr>(name: &'static str, make: Make<S>) {
    find_and_replay(
        &skiplist_relink_scenario(name, make),
        "skiplist::insert::upper::pre_link_cas",
        &["skiplist::remove::pre_retire"],
    );
}

#[test]
fn skiplist_remove_between_validate_and_cas_is_harmless_under_hp() {
    assert_skiplist_relink_replays_clean("hp", hazard::Hazard::new);
}

#[test]
fn skiplist_remove_between_validate_and_cas_is_harmless_under_cadence() {
    assert_skiplist_relink_replays_clean("cadence", cadence::Cadence::new);
}

#[test]
fn skiplist_remove_between_validate_and_cas_is_harmless_under_he() {
    assert_skiplist_relink_replays_clean("he", he::He::new);
}

#[test]
fn skiplist_remove_between_validate_and_cas_is_harmless_under_qsense() {
    assert_skiplist_relink_replays_clean("qsense", qsense::QSense::new);
}

/// List scenario: thread 0 inserts 10 between 5 and 15; thread 1 removes
/// `victim` (5 = predecessor, 15 = successor of the pending link).
fn list_scenario(victim: u64) -> Scenario {
    Scenario::new(format!("replayed/list-remove-{victim}"), move || {
        let set = Arc::new(HarrisMichaelList::<u64, hazard::Hazard>::new(
            hazard::Hazard::new(config(LIST_HP_SLOTS)),
        ));
        let mut h = set.register();
        assert!(set.insert(5, &mut h));
        assert!(set.insert(15, &mut h));
        drop(h);
        let inserter = Arc::clone(&set);
        let remover = Arc::clone(&set);
        ScenarioRun::new()
            .thread(move || {
                let mut h = inserter.register();
                assert!(inserter.insert(10, &mut h), "10 is unclaimed");
                h.flush();
            })
            .thread(move || {
                let mut h = remover.register();
                assert!(remover.remove(&victim, &mut h), "victim was prefilled");
                h.flush();
            })
            .check(move || {
                let mut h = set.register();
                assert!(set.contains(&10, &mut h), "insert survives the removal");
                assert!(!set.contains(&victim, &mut h), "victim is gone");
                assert_eq!(set.len(&mut h), 2);
            })
    })
}

/// Finds and replays a schedule in which the remover's *complete* operation —
/// the spawn grant (search + logical-delete mark) and the unlink grant — runs
/// inside the inserter's validate→CAS window, and asserts the stale link CAS
/// failed and the insert retried.
fn assert_list_window_retries(victim: u64) {
    let trace = find_and_replay(
        &list_scenario(victim),
        "list::insert::pre_link_cas",
        &[SPAWN_POINT, "list::remove::pre_unlink_cas"],
    );
    assert_retried(&trace, "list::insert::pre_link_cas");
}

#[test]
fn list_insert_survives_successor_removed_in_the_window() {
    // Removing `curr` (15) swings `prev.next` to its successor: the stale CAS
    // expecting 15 fails on pointer inequality.
    assert_list_window_retries(15);
}

#[test]
fn list_insert_survives_predecessor_removed_in_the_window() {
    // Removing `prev` (5) marks its outgoing pointer: the stale CAS fails on
    // the mark bit even though the pointer half still reads `curr` — the
    // reason the mark lives in the *outgoing* link.
    assert_list_window_retries(5);
}

/// BST scenario: prefill `{low, high}`, thread 0 inserts `key` (routing along
/// the edge toward `low`'s leaf), thread 1 removes `victim`. The remove has no
/// pause point of its own — the whole operation runs inside the grant released
/// from its spawn park, so the window predicate keys on `SPAWN_POINT`.
fn bst_scenario(low: u64, high: u64, key: u64, victim: u64) -> Scenario {
    let name = format!("replayed/bst-{low}-{high}-insert-{key}-remove-{victim}");
    Scenario::new(name, move || {
        let set = Arc::new(LockFreeBst::<u64, hazard::Hazard>::new(
            hazard::Hazard::new(config(BST_HP_SLOTS)),
        ));
        let mut h = set.register();
        assert!(set.insert(low, &mut h));
        assert!(set.insert(high, &mut h));
        drop(h);
        let inserter = Arc::clone(&set);
        let remover = Arc::clone(&set);
        ScenarioRun::new()
            .thread(move || {
                let mut h = inserter.register();
                assert!(inserter.insert(key, &mut h), "{key} is unclaimed");
                h.flush();
            })
            .thread(move || {
                let mut h = remover.register();
                assert!(remover.remove(&victim, &mut h), "{victim} was prefilled");
                h.flush();
            })
            .check(move || {
                let mut h = set.register();
                let untouched = if victim == low { high } else { low };
                assert!(set.contains(&untouched, &mut h), "bystander survives");
                assert!(set.contains(&key, &mut h), "insert survives the removal");
                assert!(!set.contains(&victim, &mut h), "victim is gone");
                assert_eq!(set.len(&mut h), 2);
            })
    })
}

/// Replays a BST schedule whose remove runs inside the inserter's edge-CAS
/// window and asserts the stale CAS failed and the insert retried.
fn assert_bst_window_retries(scenario: &Scenario) {
    let trace = find_and_replay(scenario, "bst::insert::pre_link_cas", &[SPAWN_POINT]);
    assert_retried(&trace, "bst::insert::pre_link_cas");
}

#[test]
fn bst_insert_survives_target_leaf_removed_in_the_window() {
    // Inserting 20 into {10, 30} targets internal(30).left → leaf(10);
    // removing 10 flags that very edge, so the stale CAS expecting it clean
    // fails.
    assert_bst_window_retries(&bst_scenario(10, 30, 20, 10));
}

#[test]
fn bst_insert_survives_parent_spliced_out_in_the_window() {
    // Inserting 20 into {10, 30} targets internal(30).left → leaf(10);
    // removing 30 tags that edge as the survivor and splices the inserter's
    // validated *parent* out of the tree entirely (the parent is retired).
    assert_bst_window_retries(&bst_scenario(10, 30, 20, 30));
}
