//! Dropping a session frees everything it allocated.
//!
//! A counting global allocator tracks the bytes live in the process. For
//! each program below, 1 000 sessions are built, run and dropped, and the
//! live bytes afterwards must be within a small constant of those before.
//! The programs are the ones whose sessions hold `Rc` cycles: closures
//! quoted into the session's own segment, and `ref` cells (memo tables)
//! holding closures over the environment that holds the cells.
//!
//! The binary has one test, so no other test thread allocates while it
//! counts. Counting starts only after each program has run a few times
//! on this thread, so the thread's prelude image and every cache that
//! fills once are already in place.

use mlbox::programs::{CLIENT, COMP_POLY, EVAL_POLY, MEMO_POWER2};
use mlbox::Session;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

fn track(delta: isize) {
    LIVE.fetch_add(delta, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// counts the sizes of the blocks that `System` handed out or took back.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Sessions per program.
const SESSIONS: usize = 1_000;
/// Sessions per program run before counting starts.
const WARM_UP: usize = 3;
/// How far the live bytes may drift over `SESSIONS` sessions: a few
/// bytes per session at most, where a leaking session leaves tens of
/// kilobytes.
const SLACK: isize = 16 * 1024;

/// One program run in a fresh session; returns the last rendered value.
type Program = fn(&mut Session) -> String;

fn run(s: &mut Session, src: &str) {
    s.run(src).expect("the program runs");
}

fn value(s: &mut Session, src: &str) -> String {
    s.eval_expr(src).expect("the expression evaluates").value
}

/// The programs, with the value each must compute.
fn programs() -> [(&'static str, Program, &'static str); 4] {
    [
        (
            "memoPower2",
            |s| {
                run(s, MEMO_POWER2);
                value(s, "memoPower2 5 2")
            },
            "32",
        ),
        (
            "CLIENT",
            |s| {
                for src in [EVAL_POLY, COMP_POLY, CLIENT, "val stage1 = eval client"] {
                    run(s, src);
                }
                value(s, "stage1 3 5")
            },
            // makePoly 3 = [21, 14, 7] at 5: 21 + 5 * (14 + 5 * 7).
            "266",
        ),
        (
            "lift (fn x => x + 1)",
            |s| {
                run(s, "val g = lift (fn x => x + 1)");
                value(s, "eval (lift (fn x => x + 1)) 41")
            },
            "42",
        ),
        (
            "val y = 1 + 2",
            |s| {
                run(s, "val y = 1 + 2");
                value(s, "code (fn x => x + 1)")
            },
            "<fn>",
        ),
    ]
}

fn one_session(program: Program) -> String {
    let mut s = Session::new().expect("a session");
    program(&mut s)
}

#[test]
fn dropped_sessions_leave_no_bytes_live() {
    let mut drift = Vec::new();
    for (name, program, want) in programs() {
        for _ in 0..WARM_UP {
            assert_eq!(one_session(program), want, "{name}");
        }
        let start = LIVE.load(Ordering::Relaxed);
        for _ in 0..SESSIONS {
            one_session(program);
        }
        drift.push((name, LIVE.load(Ordering::Relaxed) - start));
    }
    assert!(
        drift.iter().all(|&(_, bytes)| bytes.abs() <= SLACK),
        "live bytes after {SESSIONS} dropped sessions, per program: {drift:?}"
    );
}
