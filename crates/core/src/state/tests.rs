//! The names the unit tests under `state/` run by, and the heap counters two
//! of them share.
//!
//! A test's body lives with its subject — in `state/<module>.rs`'s own
//! `mod tests`, where it can see the private fields it checks — and runs
//! here, as `state::tests::<name>`: the name it had while `state` was one
//! file, which is the name the repository's test-id floor knows it by.

/// `#[test] fn name() { module::tests::name() }` per line.
macro_rules! run_here {
    ($($(#[$attr:meta])* $module:ident::$name:ident;)*) => {$(
        #[test]
        $(#[$attr])*
        fn $name() {
            super::$module::tests::$name()
        }
    )*};
}

run_here! {
    wlog::assign_last_writer_wins_locally;
    wlog::accum_merges_locally;
    wlog::drain_orders_contributions_by_rank_then_program_order;
    #[should_panic(expected = "put and accumulate mixed")]
    wlog::mixed_write_kinds_panic;
    #[should_panic(expected = "conflicting accumulate operators")]
    wlog::conflicting_accum_ops_panic;
    wlog::a_lone_parcel_resolves_like_the_merge;
    wlog::csr_offsets_are_checked_at_the_u32_boundary;
    wlog::radix_sort_is_stable_over_the_whole_key_range;
    wlog::the_bitmap_counts_each_element_once_at_its_word_edges;
    wlog::drain_splits_by_owner_and_sorts;
    wlog::drain_reports_write_write_conflicts_on_last_values;
    wlog::a_call_is_a_run_or_lists_its_indices;
    wlog::the_run_path_equals_the_element_model;
    wlog::buckets_equal_the_element_model;
    slots::vp_slots_lifecycle;
    #[should_panic(expected = "filled twice")]
    slots::double_fill_panics;
    slots::released_slots_free_without_leaking;
    slots::read_positions_are_checked_at_the_u32_boundary;
    table::first_seen_matches_a_map_and_reuses_its_buckets;
    cell::bulk_accesses_cost_per_call_not_per_element;
    arrays::response_arena_is_the_read_cache;
    arrays::run_cache_equals_a_sorted_map;
    #[should_panic(expected = "node element 0: put and accumulate mixed")]
    arrays::node_mixed_write_kinds_panic;
    arrays::apply_resolves_across_sources_deterministically;
    #[should_panic(expected = "exchange entry for an element this node does not own")]
    arrays::apply_rejects_an_entry_for_an_element_owned_elsewhere;
    arrays::accum_fold_is_rank_canonical_across_sources;
    #[should_panic(expected = "mixed across nodes")]
    arrays::apply_detects_cross_node_mix;
    #[should_panic(expected = "element 1: conflicting accumulate operators")]
    arrays::apply_detects_cross_node_operator_conflict;
    arrays::write_path_allocations_scale_with_sources_not_elements;
    arrays::migrate_extract_rebind_moves_elements;
    #[should_panic(
        expected = "global array 0: handle is for f64, the array holds another element type"
    )]
    arrays::a_mistyped_handle_is_named;
    arrays::serve_reads_global_indices;
    arrays::snapshot_restore_roundtrip;
    arrays::restore_rejects_mismatched_snapshots;
    arrays::narray_apply_overwrites_and_clears;
    tiles::tile_budget_off_means_everything_hot;
    tiles::tile_budget_small_arrays_stay_untiled;
    tiles::tile_budget_refill_evicts_lru_deterministically;
    tiles::touch_span_equals_the_element_wise_model;
    tiles::tile_budget_rebind_starts_cold;
    tiles::tile_budget_last_tile_is_short;
    tiles::a_refill_takes_only_the_minimum_tiles_waiters;
}

/// Counts the calling thread's heap allocations, and the bytes it holds, for
/// the flat-path assertions of `table.rs` and `arrays.rs` (unit-test builds
/// of this crate only).
struct CountingAlloc;

thread_local! {
    pub(super) static ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// `(live, peak)` bytes: blocks this thread allocated less blocks it
    /// freed, and the most that ever was. Set `peak` to `live` to start a
    /// measurement.
    pub(super) static HEAP: std::cell::Cell<(isize, isize)> =
        const { std::cell::Cell::new((0, 0)) };
}

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged (`realloc`/`alloc_zeroed` default to them); the counters are
// destructor-less thread-local statistics.
#[allow(unsafe_code)] // the crate denies it; a global allocator cannot be written without
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = HEAP.try_with(|h| {
            let live = h.get().0 + layout.size() as isize;
            h.set((live, h.get().1.max(live)));
        });
        // SAFETY: same contract as the caller's.
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        let _ = HEAP.try_with(|h| h.set((h.get().0 - layout.size() as isize, h.get().1)));
        // SAFETY: `ptr` came from `System` via `alloc` above.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;
