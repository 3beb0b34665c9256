//! Control of the host the measurement runs on: allocator tunables, idle
//! states and thread placement. None of it touches the program under
//! test; all of it is the same on the parent commit and on a change.
//! Everything here is Linux (the allocator part: glibc) and degrades to
//! doing nothing elsewhere.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Make the C allocator's behaviour the same in every run.
///
/// By default glibc returns freed memory at the top of the heap to the
/// kernel and maps large blocks afresh, with thresholds it adapts as it
/// goes. Whether a query that builds and drops a few hundred megabytes of
/// rows then faults all its pages in again depends on what happened to be
/// freed last: on the calibration box that made `paper14.inproc` bimodal
/// (Y4 at 90 ms in one process, 175 ms in the next, same seed). Fixed
/// thresholds that keep the heap make every run the fast mode.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn steady_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores tunables of the C allocator. It is
    // called once, first thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_TOP_PAD, 256 << 20);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn steady_allocator() {}

/// A `cpu_set_t`: 1024 bits.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

/// The CPUs this process may run on, ascending — by number, since a
/// container's allowance need not start at 0. Falls back to
/// `0..available_parallelism`.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        }
        let mut mask: CpuSet = [0; 16];
        // SAFETY: pid 0 names the calling thread; `mask` is live, writable
        // and of the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } == 0 {
            let cpus: Vec<usize> = (0..1024)
                .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect();
            if !cpus.is_empty() {
                return cpus;
            }
        }
    }
    (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect()
}

/// Restrict the calling thread — and every thread it spawns from now on —
/// to `cpus`; `false` if the platform has no such thing or refuses.
#[cfg(target_os = "linux")]
pub fn run_on(cpus: &[usize]) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    let mut mask: CpuSet = [0; 16];
    for &cpu in cpus {
        let Some(word) = mask.get_mut(cpu / 64) else {
            return false;
        };
        *word |= 1 << (cpu % 64);
    }
    // SAFETY: pid 0 names the calling thread; `mask` is live, of the size
    // passed, and the call only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn run_on(_cpus: &[usize]) -> bool {
    false
}

/// Put the calling thread in the `SCHED_IDLE` class; `false` if the
/// platform has none or refuses.
#[cfg(target_os = "linux")]
fn run_only_when_idle() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread; `param` is a live, correctly
    // laid out `struct sched_param` that the call only reads.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn run_only_when_idle() -> bool {
    false
}

/// One spinning thread per CPU, at the scheduler's idle priority, for as
/// long as the value lives: the benchmark's equivalent of switching CPU
/// idle states off.
///
/// On the 2-vCPU VM the bounds were calibrated on, a CPU that goes idle is
/// descheduled by the hypervisor, and waking it costs tens of microseconds
/// that vary with the host's load. Closed-loop clients and their connection
/// threads hand the CPUs back and forth on every request, so those
/// wake-ups were a large and unsteady share of every loopback round trip
/// (`analytic.tcp.c2`: 93 or 125 ops/s from one run to the next without
/// the spinners, 119–133 with them). `SCHED_IDLE` threads run only when
/// nothing else wants the CPU and are preempted the moment anything does,
/// so they take no time from the system under test.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start(cpus: &[usize]) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = cpus
            .iter()
            .map(|&cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Without the idle class a spinner would compete with
                    // the system under test: better not to spin at all.
                    if !(run_on(&[cpu]) && run_only_when_idle()) {
                        return;
                    }
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            // A spinner cannot panic; nothing to report from a drop.
            let _ = spinner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_and_stop_and_pinning_round_trips() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        drop(KeepAwake::start(&cpus));
        if run_on(&cpus[cpus.len() - 1..]) {
            assert_eq!(allowed_cpus(), cpus[cpus.len() - 1..]);
            assert!(run_on(&cpus));
            assert_eq!(allowed_cpus(), cpus);
        }
    }
}
