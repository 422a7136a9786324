//! The reference kernel: a fixed piece of work that belongs to the
//! benchmark, not to the program, timed alongside every workload so that
//! times can be stated at a fixed host speed.
//!
//! On a shared virtual machine the CPU time of identical work drifts with
//! the host's load — in one 60-second run of `hot_filters`, one-second
//! buckets ranged over 1.85× — and that drift lasts for minutes, so no
//! length of run averages it away. The kernel drifts with it: over the
//! same run, request CPU time divided by the kernel's CPU time measured
//! in the same second ranged over 1.16×. Times are therefore reported in
//! *reference* units: CPU time × [`NOMINAL`] ÷ the kernel's CPU time
//! measured alongside, that is, CPU time on a host where one run of the
//! kernel takes exactly [`NOMINAL`].
//!
//! The kernel mixes what the MLbox machine spends its time on — small
//! heap allocations and frees, a scattered table update and
//! data-dependent branches — and is fixed: changing it changes every
//! reported time, so it changes only with the benchmark.

use crate::stats::thread_cpu;
use std::hint::black_box;
use std::time::Duration;

/// The kernel's CPU time on the host the benchmark was tuned on (a
/// two-vCPU virtual machine), and the unit of reference time.
pub const NOMINAL: Duration = Duration::from_millis(1);

const ITERS: u64 = 24_000;

/// One run of the kernel; the result only defeats dead-code elimination.
pub fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut table = vec![0u64; 4096];
    let mut live: Vec<Box<[u64; 4]>> = Vec::with_capacity(257);
    let mut acc = 0u64;
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        live.push(Box::new([x, i, x ^ i, acc]));
        if live.len() > 256 {
            acc = acc.wrapping_add(live.swap_remove((x % 256) as usize)[2]);
        }
        let slot = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 52) as usize;
        table[slot] = table[slot].wrapping_add(acc | 1);
        acc = match x % 5 {
            0 => acc.wrapping_mul(3),
            1 => acc ^ x,
            2 => acc.rotate_left(7),
            3 => acc.wrapping_add(i),
            _ => acc.wrapping_sub(x >> 3),
        };
    }
    acc ^ table.iter().fold(0, |a, &b| a ^ b)
}

/// CPU time of one run of the kernel on the calling thread.
pub fn time_kernel() -> Duration {
    let t0 = thread_cpu();
    black_box(kernel());
    thread_cpu().saturating_sub(t0)
}

/// CPU times of `n` runs of the kernel.
pub fn sample(n: usize) -> Vec<Duration> {
    (0..n).map(|_| time_kernel()).collect()
}

/// `cpu` in reference time, given kernel times measured alongside it.
pub fn at_reference_speed(cpu: Duration, kernel_times: &[Duration]) -> Duration {
    let mut k = kernel_times.to_vec();
    k.sort_unstable();
    let median = k[k.len() / 2];
    cpu.mul_f64(NOMINAL.as_secs_f64() / median.as_secs_f64().max(1e-9))
}
