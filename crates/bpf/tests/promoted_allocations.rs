//! Promoted filter code allocates only what its packets need.
//!
//! A counting global allocator counts every allocation the process makes.
//! Each Table 1 filter is specialized and hydrated with the default
//! session options, run on `PROMOTE_AFTER` packets so that the tier
//! controller promotes its hot blocks, and then run on a fixed batch of
//! packets while the allocations are counted. The count is exact and
//! repeats from run to run: the same code on the same packets makes the
//! same allocations. It pins the promotion-only forms that take a pair
//! apart as soon as it is built (`cons_prim`, `prim_int`, `cons_branch`,
//! `enter`, DESIGN.md §11): without them a promoted packet builds every
//! operand pair, branch pair and applied closure of its cold code.
//!
//! The binary has one test, so no other test thread allocates while it
//! counts.

use ccam::machine::PROMOTE_AFTER;
use mlbox_bpf::native::run_filter;
use mlbox_bpf::{
    chain_filter, expect_verdict, filter_arg, multi_port_filter, port_filter, telnet_filter,
    FilterHarness, Insn, PacketGen,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations made through the global allocator (a `realloc` counts as
/// one: it may move the block).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// counts the calls that hand out memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Packets in the counted batch.
const BATCH: usize = 64;

/// The allocations per packet of one filter's promoted code: its
/// artifact hydrated with the default options, promoted, then run on a
/// fixed batch, whose verdicts must be the native interpreter's.
fn allocations_per_packet(filter: &[Insn]) -> u64 {
    let mut harness = FilterHarness::new(filter).expect("the harness builds");
    let artifact = harness.compile_artifact().expect("the filter specializes");
    let mut instance = artifact.instantiate();
    let mut warm = PacketGen::new(2027);
    for _ in 0..=PROMOTE_AFTER {
        instance
            .run(filter_arg(&warm.telnet(16)))
            .expect("the filter runs");
    }
    assert!(
        instance.stats().promotions > 0,
        "the filter's blocks were promoted"
    );
    // Arguments are built before counting starts, and results dropped
    // after it stops: only what a packet's run allocates is counted.
    let packets = PacketGen::new(1998).workload(BATCH, 0.5);
    let args: Vec<_> = packets.iter().map(filter_arg).collect();
    let mut outs = Vec::with_capacity(BATCH);
    let before = instance.stats();
    let start = ALLOCS.load(Ordering::Relaxed);
    for arg in args {
        outs.push(instance.run(arg));
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - start;
    let stats = instance.stats().delta_since(&before);
    assert!(
        stats.tier_steps[1] > stats.tier_steps[0],
        "the batch ran promoted code: {stats:?}"
    );
    for (out, pkt) in outs.into_iter().zip(&packets) {
        let verdict = expect_verdict(&out.expect("the filter runs").0).expect("an int verdict");
        assert_eq!(verdict, run_filter(filter, &pkt.bytes));
    }
    allocs / BATCH as u64
}

#[test]
fn promoted_filters_take_pairs_apart_without_building_them() {
    // (filter, the most allocations a promoted packet may make). Code
    // that builds the pairs it takes apart made 79, 79, 72 and 85.
    let filters = [
        ("accept_telnet", telnet_filter(), 42),
        ("accept_port_80", port_filter(80), 41),
        (
            "accept_ports_22_23_80",
            multi_port_filter(&[22, 23, 80]),
            40,
        ),
        ("chain_8", chain_filter(8), 57),
    ];
    for (name, filter, bound) in filters {
        let per_packet = allocations_per_packet(&filter);
        println!("{name}: {per_packet} allocations per packet");
        assert!(
            per_packet <= bound,
            "{name}: {per_packet} allocations per promoted packet, more than {bound}"
        );
    }
}
