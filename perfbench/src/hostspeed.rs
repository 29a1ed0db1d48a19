//! Host-speed normalisation of the bounded host timings.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed drifts
//! by a third or more over minutes as co-tenants come and go, so raw wall
//! times of the same code disagree between runs. The drift is common to
//! all code running on the vCPU at that moment, so the benchmark measures
//! it: a fixed reference kernel, written here and independent of every
//! crate of the repository, runs right before and right after each timed
//! interval, and the interval's host time is scaled by
//! `NOMINAL_NS / (mean of the two kernel times)`. A bounded timing is
//! therefore reported in *reference time*: the time the interval would
//! have taken on a host where the kernel takes [`NOMINAL_NS`], close to
//! what it takes on the 2-vCPU Xeon VM the benchmark was defined on
//! (medians of 1.6–2.6 ms measured there).
//! A change to the program moves the interval and not the kernel, so it
//! moves the normalised value in full; a slower or faster host moves both.
//!
//! The kernel is chosen to slow down with the host the way the simulator
//! does: hashing, a hash map and a binary heap, about a megabyte in all.
//! On the 2-vCPU Xeon VM it cut the pass-to-pass spread of `fig6-matrix`
//! cells from 0.09–0.24 to 0.02–0.05 (IQR/median); a 32 KiB map, a
//! multiply chain and a pointer chase over megabytes (memory latency)
//! tracked the simulator worse.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The kernel time that reference time is scaled to, ns.
pub const NOMINAL_NS: f64 = 2.0e6;

/// Steps of one kernel chunk.
const CHUNK_STEPS: u64 = 8_000;
/// Chunks of one probe.
const CHUNKS: usize = 6;
/// Keys the kernel's map draws from.
const KEYS: u64 = 50_000;
/// Entries the kernel's map is allocated for, once; every chunk clears it.
const MAP_CAPACITY: usize = 1 << 15;
/// Heap size the kernel keeps.
const HEAP_KEEP: usize = 64;

/// A fixed hasher, so every process hashes the same keys the same way.
type FixedMap = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The kernel's state, reused between chunks so that a probe neither
/// allocates nor page-faults.
#[derive(Debug)]
struct Kernel {
    map: FixedMap,
    heap: BinaryHeap<Reverse<u64>>,
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel {
            map: FixedMap::with_capacity_and_hasher(MAP_CAPACITY, Default::default()),
            heap: BinaryHeap::with_capacity(HEAP_KEEP + 1),
        }
    }
}

/// SplitMix64's output function. A private copy rather than
/// `dve_sim::rng`, so that no change to the repository's crates can change
/// the kernel.
fn mix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Kernel {
    /// One chunk: a fixed, branchy sequence of map updates and heap
    /// operations. Returns a checksum so nothing is optimised away.
    fn chunk(&mut self, chunk: usize) -> u64 {
        self.map.clear();
        self.heap.clear();
        let mut s = chunk as u64;
        let mut acc = 0u64;
        for k in 0..CHUNK_STEPS {
            s = mix(s);
            let e = self.map.entry(s % KEYS).or_insert(0);
            *e += k;
            if *e & 1 == 0 {
                self.heap.push(Reverse(s >> 40));
            }
            if self.heap.len() > HEAP_KEEP {
                acc ^= self.heap.pop().map_or(0, |r| r.0);
            }
        }
        acc ^ self.map.len() as u64
    }
}

/// The reference clock.
#[derive(Debug)]
pub struct HostClock {
    kernel: Kernel,
    /// CPUs to probe one after another; empty: the calling thread's CPU.
    cpus: Vec<usize>,
    /// The latest probe, ns.
    last_ns: f64,
    /// Every probe taken, ns.
    probes: Vec<f64>,
}

impl HostClock {
    /// A clock for single-threaded work: probes on the calling thread,
    /// which should be pinned (see [`Pin`]) so that the probes and the
    /// work share a vCPU.
    pub fn new() -> HostClock {
        HostClock::probing(Vec::new())
    }

    /// A clock for work that runs on every CPU the process may use, as the
    /// campaign's workers do: a probe runs the kernel pinned to each of
    /// those CPUs in turn and combines the times as parallel throughput,
    /// `n / Σ 1/tᵢ`, so a vCPU the host slows down or takes away shows in
    /// the factor.
    pub fn across_cpus() -> HostClock {
        HostClock::probing(allowed_cpus())
    }

    /// A clock over `cpus`; probes a few times first so the kernel's
    /// memory is allocated and warm.
    fn probing(cpus: Vec<usize>) -> HostClock {
        let mut clock = HostClock {
            kernel: Kernel::default(),
            cpus,
            last_ns: 0.0,
            probes: Vec::new(),
        };
        for _ in 0..3 {
            clock.probe();
        }
        clock.probes.clear();
        clock
    }

    /// Runs the kernel once and returns its wall time, ns.
    fn kernel_ns(&mut self) -> f64 {
        let t = Instant::now();
        let sum = (0..CHUNKS).fold(0, |acc, c| acc ^ self.kernel.chunk(c));
        let ns = t.elapsed().as_nanos() as f64;
        std::hint::black_box(sum);
        ns
    }

    /// Probes the host: the kernel's time, ns.
    fn probe(&mut self) -> f64 {
        let ns = if self.cpus.len() < 2 {
            self.kernel_ns()
        } else {
            let cpus = self.cpus.clone();
            let speed: f64 = cpus
                .iter()
                .map(|&cpu| {
                    let _pin = Pin::to(cpu);
                    1.0 / self.kernel_ns()
                })
                .sum();
            cpus.len() as f64 / speed
        };
        self.last_ns = ns;
        self.probes.push(ns);
        ns
    }

    /// Starts an interval: probes the host.
    pub fn start(&mut self) {
        self.probe();
    }

    /// Ends the interval since the previous probe and starts the next one:
    /// probes the host again and returns the factor that turns host time
    /// measured in the interval into reference time.
    pub fn factor(&mut self) -> f64 {
        let before = self.last_ns;
        let after = self.probe();
        2.0 * NOMINAL_NS / (before + after)
    }

    /// Every probe taken since the clock was made, ns (for the report).
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }
}

impl Default for HostClock {
    fn default() -> HostClock {
        HostClock::new()
    }
}

/// CPU-set words of an affinity mask (1 024 CPUs).
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
type Mask = [u64; MASK_WORDS];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's affinity mask, if it can be read.
#[cfg(target_os = "linux")]
fn affinity() -> Option<Mask> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    let got = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    (got == 0).then_some(mask)
}

/// Sets the calling thread's affinity mask; whether it was set.
#[cfg(target_os = "linux")]
fn set_affinity(mask: &Mask) -> bool {
    // SAFETY: `mask` is a readable buffer of the size passed.
    unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
}

/// The CPUs the calling thread may run on (empty if unknown).
fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    if let Some(mask) = affinity() {
        return (0..MASK_WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
    }
    Vec::new()
}

/// Keeps the calling thread on one CPU until dropped, then restores its
/// affinity. The vCPUs of a shared host can differ in speed by half at the
/// same moment, so the probes and the work they bracket must run on the
/// same one. Threads spawned meanwhile inherit the pin, so drop it before
/// starting multi-threaded work. Where the affinity cannot be read or
/// set, pinning does nothing.
#[derive(Debug)]
pub struct Pin {
    #[cfg(target_os = "linux")]
    old: Option<Mask>,
}

impl Pin {
    /// Pins the calling thread to the CPU it is running on.
    pub fn here() -> Pin {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `sched_getcpu` has no preconditions.
            let cpu = unsafe { sched_getcpu() };
            match usize::try_from(cpu) {
                Ok(cpu) => Pin::to(cpu),
                Err(_) => Pin { old: None },
            }
        }
        #[cfg(not(target_os = "linux"))]
        Pin {}
    }

    /// Pins the calling thread to `cpu`.
    fn to(cpu: usize) -> Pin {
        #[cfg(target_os = "linux")]
        {
            let Some(old) = affinity().filter(|_| cpu < MASK_WORDS * 64) else {
                return Pin { old: None };
            };
            let mut one = [0u64; MASK_WORDS];
            one[cpu / 64] = 1 << (cpu % 64);
            Pin {
                old: set_affinity(&one).then_some(old),
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = cpu;
            Pin {}
        }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        // A failure leaves the thread pinned, which only costs speed.
        #[cfg(target_os = "linux")]
        if let Some(old) = &self.old {
            set_affinity(old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let (mut a, mut b) = (Kernel::default(), Kernel::default());
        assert_eq!(a.chunk(3), b.chunk(3));
        assert_eq!(a.chunk(3), a.chunk(3));
        assert_ne!(a.chunk(3), a.chunk(4));
    }

    #[test]
    fn factor_is_nominal_over_mean_probe() {
        let mut c = HostClock::new();
        c.start();
        let f = c.factor();
        let p = c.probes();
        assert_eq!(p.len(), 2);
        assert!((f - 2.0 * NOMINAL_NS / (p[0] + p[1])).abs() < 1e-12);
    }

    #[test]
    fn across_cpus_probes_every_cpu() {
        let mut c = HostClock::across_cpus();
        let before = allowed_cpus();
        c.start();
        assert!(c.factor() > 0.0);
        assert_eq!(allowed_cpus(), before, "the probe restores the affinity");
    }

    #[test]
    fn pin_restores_affinity() {
        let before = std::thread::available_parallelism().map_or(1, |n| n.get());
        {
            let _pin = Pin::here();
            let pinned = std::thread::available_parallelism().map_or(1, |n| n.get());
            assert!(pinned == 1 || !cfg!(target_os = "linux"));
        }
        let after = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(before, after);
    }
}
