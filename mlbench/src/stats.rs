//! Order statistics and process measurements.

use crate::reference;
use std::time::{Duration, Instant};

/// The `q`-quantile of `sorted` by nearest rank (`sorted` ascending,
/// non-empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads one clock; `None` if the kernel refuses it (a thread clock of a
/// thread that has exited).
fn read_clock(clock: i32) -> Option<Duration> {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the duration of the
    // call, which is all `clock_gettime` asks.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.sec as u64, ts.nsec as u32))
}

/// CPU time this process has used, all threads together, as the kernel
/// accounts it. Unlike wall time it leaves out time the process spent
/// runnable but not running: waiting for a core, or held back by the
/// host of a virtual machine (steal). Other threads' shares may lag by up
/// to a scheduler tick, so this is for long intervals such as set-up.
pub fn process_cpu() -> Duration {
    read_clock(CLOCK_PROCESS_CPUTIME_ID).expect("clock_gettime(CLOCK_PROCESS_CPUTIME_ID)")
}

/// CPU time the calling thread has used.
pub fn thread_cpu() -> Duration {
    read_clock(CLOCK_THREAD_CPUTIME_ID).expect("clock_gettime(CLOCK_THREAD_CPUTIME_ID)")
}

/// CPU time used by the threads that were alive when the clock was made,
/// summed over their per-thread clocks. Like [`process_cpu`] it leaves
/// out waiting and steal; unlike it, it is up to date for threads running
/// on another core, so a request served by a pool worker is timed
/// exactly rather than to the last scheduler tick.
#[derive(Debug)]
pub struct CpuClock {
    clocks: Vec<i32>,
}

impl CpuClock {
    pub fn of_live_threads() -> CpuClock {
        let mut tids: Vec<u32> = std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
            .collect();
        tids.sort_unstable();
        // The kernel's per-thread scheduler clock id: `!tid << 3`, with
        // CPUCLOCK_PERTHREAD (4) | CPUCLOCK_SCHED (2).
        let clocks = tids
            .into_iter()
            .map(|tid| ((!tid) << 3 | 6) as i32)
            .collect();
        CpuClock { clocks }
    }

    pub fn now(&self) -> Duration {
        self.clocks.iter().filter_map(|&c| read_clock(c)).sum()
    }
}

/// The start of one request: wall and CPU clocks together.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: Duration,
}

/// Closed-loop request accounting for one timed window, split into equal
/// wall-clock slices. Requests are timed by the CPU time of the process's
/// threads (see [`CpuClock`]); between requests, every [`REF_EVERY`], the
/// recorder times the reference kernel, and each slice's times are stated
/// at reference speed using that slice's kernel times (see
/// [`crate::reference`]). Throughput and latency quantiles are each the
/// median of the per-slice values, so one slice hit by a burst of host
/// noise does not move them.
#[derive(Debug)]
pub struct Recorder {
    clock: CpuClock,
    start: Instant,
    slice: Duration,
    slices: usize,
    slice_items: Vec<u64>,
    slice_cpu: Vec<Duration>,
    slice_latencies: Vec<Vec<u64>>,
    slice_kernel: Vec<Vec<Duration>>,
    last_kernel: Option<Instant>,
    /// Per-request CPU time, nanoseconds, in completion order.
    pub latencies_ns: Vec<u64>,
    /// Per-request wall time, nanoseconds, in completion order.
    wall_ns: Vec<u64>,
    /// Items attempted (packets or programs).
    pub attempted: u64,
    /// Items that errored, were refused, or disagreed with the reference.
    pub failed: u64,
}

/// Throughput and latency quantiles are medians over this many equal
/// slices of the window. Few enough that, in a 20-second window, each
/// slice's p99 rests on more than ten requests beyond it (`hot_filters`,
/// the workload with the fewest requests, has about 2 000 a slice).
pub const SLICES: usize = 8;

/// How often the reference kernel is timed: about 2% of the window.
pub const REF_EVERY: Duration = Duration::from_millis(50);

impl Recorder {
    /// A recorder for a window starting now, timing the threads alive now.
    pub fn new(window: Duration) -> Recorder {
        Recorder {
            clock: CpuClock::of_live_threads(),
            start: Instant::now(),
            slice: window / SLICES as u32,
            slices: SLICES,
            slice_items: vec![0; SLICES],
            slice_cpu: vec![Duration::ZERO; SLICES],
            slice_latencies: vec![Vec::new(); SLICES],
            slice_kernel: vec![Vec::new(); SLICES],
            last_kernel: None,
            latencies_ns: Vec::new(),
            wall_ns: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Whether the timed window is over.
    pub fn done(&self) -> bool {
        self.start.elapsed() >= self.slice * self.slices as u32
    }

    /// Marks the start of a request.
    pub fn stamp(&self) -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: self.clock.now(),
        }
    }

    /// Records one request of `items` items, `failed` of them bad, that
    /// started at `stamp` and has just completed.
    pub fn record(&mut self, stamp: Stamp, items: u64, failed: u64) {
        let cpu = self.clock.now().saturating_sub(stamp.cpu);
        self.wall_ns
            .push(u64::try_from(stamp.wall.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let slice = (self.start.elapsed().as_nanos() / self.slice.as_nanos().max(1)) as usize;
        let nanos = u64::try_from(cpu.as_nanos()).unwrap_or(u64::MAX);
        if slice < self.slices {
            self.slice_items[slice] += items - failed;
            self.slice_cpu[slice] += cpu;
            self.slice_latencies[slice].push(nanos);
        }
        self.latencies_ns.push(nanos);
        self.attempted += items;
        self.failed += failed;
        if slice < self.slices && self.last_kernel.is_none_or(|t| t.elapsed() >= REF_EVERY) {
            self.slice_kernel[slice].push(reference::time_kernel());
            self.last_kernel = Some(Instant::now());
        }
    }

    /// Slices that have requests and kernel times: (items, CPU time,
    /// per-request CPU ns, kernel times).
    fn timed_slices(&self) -> impl Iterator<Item = (u64, Duration, &Vec<u64>, &[Duration])> + '_ {
        (0..self.slices)
            .filter(|&i| !self.slice_cpu[i].is_zero() && !self.slice_kernel[i].is_empty())
            .map(|i| {
                (
                    self.slice_items[i],
                    self.slice_cpu[i],
                    &self.slice_latencies[i],
                    self.slice_kernel[i].as_slice(),
                )
            })
    }

    /// Verified items per second of reference time in requests: the
    /// median of the per-slice rates (0 if no slice has both requests and
    /// kernel times, as in a zero-length window).
    pub fn throughput(&self) -> f64 {
        let rates: Vec<f64> = self
            .timed_slices()
            .map(|(n, cpu, _, k)| n as f64 / reference::at_reference_speed(cpu, k).as_secs_f64())
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        median_f64(&rates)
    }

    /// `(p50, p99)` request time in reference milliseconds: medians of
    /// the per-slice quantiles (0 if no slice has requests and kernel
    /// times).
    pub fn latency_ms(&self) -> (f64, f64) {
        let q = |q: f64| {
            let per: Vec<f64> = self
                .timed_slices()
                .map(|(_, _, l, k)| {
                    let mut l = l.clone();
                    l.sort_unstable();
                    let cpu = Duration::from_nanos(quantile(&l, q));
                    reference::at_reference_speed(cpu, k).as_secs_f64() * 1e3
                })
                .collect();
            if per.is_empty() {
                0.0
            } else {
                median_f64(&per)
            }
        };
        (q(0.50), q(0.99))
    }

    /// Median CPU time of the reference kernel over the window, µs.
    pub fn kernel_us(&self) -> f64 {
        let all: Vec<f64> = self
            .slice_kernel
            .iter()
            .flatten()
            .map(|d| d.as_secs_f64() * 1e6)
            .collect();
        if all.is_empty() {
            0.0
        } else {
            median_f64(&all)
        }
    }

    /// Requests in the smallest slice (each slice's p99 rests on it).
    pub fn min_slice_requests(&self) -> usize {
        self.slice_latencies.iter().map(Vec::len).min().unwrap_or(0)
    }

    fn cpu_s(&self) -> f64 {
        self.latencies_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Items attempted per second of CPU time inside requests.
    pub fn cpu_rate(&self) -> f64 {
        self.attempted as f64 / self.cpu_s().max(1e-9)
    }

    /// Wall time inside requests ÷ their CPU time: above 1 by the time
    /// requests spent waiting — for a core, for the host, or for a pool
    /// worker to wake — which the CPU-time metrics leave out.
    pub fn wall_per_cpu(&self) -> f64 {
        self.wall_ns.iter().sum::<u64>() as f64 / 1e9 / self.cpu_s().max(1e-9)
    }

    /// Median wall time of a request, µs (0 with no requests).
    pub fn wall_p50_us(&self) -> f64 {
        if self.wall_ns.is_empty() {
            return 0.0;
        }
        let mut w = self.wall_ns.clone();
        w.sort_unstable();
        quantile(&w, 0.5) as f64 / 1e3
    }
}
