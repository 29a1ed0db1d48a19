//! Layer timing from outside the crates: a stopwatch that charges every
//! nanosecond of a traced pass to exactly one layer, and a
//! [`Fabric`](dve_coherence::fabric::Fabric) wrapper that switches the
//! stopwatch around each call into the memory fabric.
//!
//! Self time falls out of the switching: entering a nested layer stops the
//! enclosing layer's clock, returning restarts it. Spans are counters in
//! memory; nothing is written until the pass ends.
//!
//! Switches read the x86-64 time-stamp counter, a few nanoseconds, instead
//! of the system clock, and tick counts are converted to nanoseconds with
//! the ratio of the two clocks over the whole pass. Even so a read costs as
//! much as the smallest calls timed, so a stopwatch first times empty
//! spans and reports every layer's self time, and the wall time, net of
//! that cost.

use dve_coherence::fabric::Fabric;
use dve_coherence::types::LineAddr;
use dve_noc::traffic::MessageClass;
use dve_sim::latency::Stamp;
use std::cell::Cell;
use std::time::Instant;

/// Layer index into a [`Stopwatch`].
pub type Layer = usize;

/// A cheap monotonic tick count: the time-stamp counter (constant-rate on
/// current x86-64 hardware).
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: RDTSC has no preconditions on x86-64.
    #[allow(unused_unsafe)]
    unsafe {
        std::arch::x86_64::_rdtsc()
    }
}

/// A cheap monotonic tick count: nanoseconds since first use.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What one empty span costs, ns: the part charged to the span's own layer
/// and the part charged to the layer that opened it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanCost {
    /// Charged to the span's layer.
    pub inner: f64,
    /// Charged to the enclosing layer.
    pub outer: f64,
}

/// Empty spans per calibration round, and rounds; the cheapest round is
/// kept, since host interruptions only ever add time.
const CALIBRATION_SPANS: u64 = 20_000;
const CALIBRATION_ROUNDS: usize = 7;

/// Charges elapsed ticks to the current layer on every switch.
///
/// Interior mutability lets the `&self` methods of [`Fabric`] switch
/// layers too; a stopwatch is used from one thread only. Figures in ns are
/// meaningful once [`Stopwatch::stop`] has fixed the tick rate.
#[derive(Debug)]
pub struct Stopwatch {
    started: Instant,
    start_ticks: u64,
    last: Cell<u64>,
    current: Cell<Layer>,
    ticks: Vec<Cell<u64>>,
    calls: Vec<Cell<u64>>,
    /// Spans opened while each layer was current.
    opened: Vec<Cell<u64>>,
    /// Ticks one empty span charges to its layer and to the enclosing one.
    cost_ticks: (f64, f64),
    ns_per_tick: Cell<f64>,
    wall_ns: Cell<u64>,
}

impl Stopwatch {
    /// A stopwatch over `layers` layers, charging to `initial` from now,
    /// with its span cost measured first.
    pub fn new(layers: usize, initial: Layer) -> Stopwatch {
        let cost_ticks = calibrate();
        Stopwatch {
            cost_ticks,
            ..Stopwatch::uncalibrated(layers, initial)
        }
    }

    fn uncalibrated(layers: usize, initial: Layer) -> Stopwatch {
        let zeros = || (0..layers).map(|_| Cell::new(0)).collect();
        let (started, start_ticks) = (Instant::now(), ticks());
        Stopwatch {
            started,
            start_ticks,
            last: Cell::new(start_ticks),
            current: Cell::new(initial),
            ticks: zeros(),
            calls: zeros(),
            opened: zeros(),
            cost_ticks: (0.0, 0.0),
            ns_per_tick: Cell::new(1.0),
            wall_ns: Cell::new(0),
        }
    }

    /// Charges the ticks since the last switch to the current layer, makes
    /// `to` current and returns the layer that was current before.
    #[inline]
    fn enter(&self, to: Layer) -> Layer {
        let now = ticks();
        let from = self.current.replace(to);
        let spent = now.saturating_sub(self.last.replace(now));
        self.ticks[from].set(self.ticks[from].get() + spent);
        from
    }

    /// Runs `f` charged to `layer`, then returns to the enclosing layer.
    #[inline]
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.calls[layer].set(self.calls[layer].get() + 1);
        let back = self.enter(layer);
        self.opened[back].set(self.opened[back].get() + 1);
        let r = f();
        self.enter(back);
        r
    }

    /// Closes the pass: charges the ticks since the last switch, fixes the
    /// tick rate against the system clock, and returns the raw wall time
    /// since construction (clock cost included), ns.
    pub fn stop(&self) -> u64 {
        self.enter(self.current.get());
        let wall = self.started.elapsed().as_nanos() as u64;
        let ticks = self.last.get().saturating_sub(self.start_ticks).max(1);
        self.ns_per_tick.set(wall as f64 / ticks as f64);
        self.wall_ns.set(wall);
        wall
    }

    /// What one empty span costs on this stopwatch, ns.
    pub fn cost(&self) -> SpanCost {
        let k = self.ns_per_tick.get();
        SpanCost {
            inner: self.cost_ticks.0 * k,
            outer: self.cost_ticks.1 * k,
        }
    }

    /// Wall time of the pass net of every span's calibrated cost, ns.
    pub fn net_wall(&self) -> f64 {
        let spans: u64 = self.calls.iter().map(Cell::get).sum();
        let cost = self.cost();
        (self.wall_ns.get() as f64 - spans as f64 * (cost.inner + cost.outer)).max(0.0)
    }

    /// Self time of `layer` net of the calibrated cost of its own spans
    /// and of the spans it opened, ns (never below 0).
    pub fn ns(&self, layer: Layer) -> f64 {
        let cost = self.cost();
        let clock = self.calls[layer].get() as f64 * cost.inner
            + self.opened[layer].get() as f64 * cost.outer;
        (self.raw_ns(layer) - clock).max(0.0)
    }

    /// Raw self time charged to `layer`, clock cost included, ns.
    pub fn raw_ns(&self, layer: Layer) -> f64 {
        self.ticks[layer].get() as f64 * self.ns_per_tick.get()
    }

    /// Spans opened on `layer` through [`Stopwatch::span`].
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer].get()
    }

    /// Share of the net wall time spent in spans, i.e. not charged to
    /// `root`, the layer current when no span is open.
    pub fn coverage(&self, root: Layer) -> f64 {
        let wall = self.net_wall();
        if wall == 0.0 {
            return 0.0;
        }
        let named: f64 = (0..self.ticks.len())
            .filter(|&l| l != root)
            .map(|l| self.ns(l))
            .sum();
        named / wall
    }
}

/// Times empty spans of one layer opened from another: ticks charged to
/// the span's layer and to the enclosing layer per span.
fn calibrate() -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..CALIBRATION_ROUNDS {
        let sw = Stopwatch::uncalibrated(2, 0);
        for _ in 0..CALIBRATION_SPANS {
            sw.span(1, || std::hint::black_box(()));
        }
        sw.enter(0);
        let per = |l: Layer| sw.ticks[l].get() as f64 / CALIBRATION_SPANS as f64;
        let c = (per(1), per(0));
        if c.0 + c.1 < best.0 + best.1 {
            best = c;
        }
    }
    best
}

/// Layers of the memory fabric a [`TimedFabric`] charges.
#[derive(Debug, Clone, Copy)]
pub struct FabricLayers {
    /// Mesh latency and inter-socket link calls.
    pub noc: Layer,
    /// DRAM controller calls (reads, including the ECC check, and writes).
    pub dram: Layer,
}

/// A transparent timing wrapper: forwards every [`Fabric`] method,
/// including the defaulted `l1/llc/dir_latency`, to `inner`, and charges
/// the mesh/link calls to the NoC layer and the memory calls to the DRAM
/// layer. It changes no argument and no result, so timing is identical
/// with and without it.
pub struct TimedFabric<'a, F: Fabric> {
    /// The real fabric.
    pub inner: &'a mut F,
    /// Where the time goes.
    pub sw: &'a Stopwatch,
    /// Which layers to charge.
    pub layers: FabricLayers,
}

impl<F: Fabric> Fabric for TimedFabric<'_, F> {
    fn l1_latency(&self) -> u64 {
        self.inner.l1_latency()
    }

    fn llc_latency(&self) -> u64 {
        self.inner.llc_latency()
    }

    fn dir_latency(&self) -> u64 {
        self.inner.dir_latency()
    }

    fn mesh_latency(&self) -> u64 {
        self.sw.span(self.layers.noc, || self.inner.mesh_latency())
    }

    fn mesh_latency_core(&self, core: usize) -> u64 {
        self.sw
            .span(self.layers.noc, || self.inner.mesh_latency_core(core))
    }

    fn link_send(&mut self, from: usize, to: usize, t: Stamp, class: MessageClass) -> Stamp {
        let inner = &mut *self.inner;
        self.sw
            .span(self.layers.noc, || inner.link_send(from, to, t, class))
    }

    fn link_probe(&self, from: usize, to: usize, t: Stamp, class: MessageClass) -> Stamp {
        self.sw.span(self.layers.noc, || {
            self.inner.link_probe(from, to, t, class)
        })
    }

    fn mem_read(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp {
        let inner = &mut *self.inner;
        self.sw
            .span(self.layers.dram, || inner.mem_read(socket, line, t))
    }

    fn replica_read(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp {
        let inner = &mut *self.inner;
        self.sw
            .span(self.layers.dram, || inner.replica_read(socket, line, t))
    }

    fn mem_write(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp {
        let inner = &mut *self.inner;
        self.sw
            .span(self.layers.dram, || inner.mem_write(socket, line, t))
    }

    fn replica_write(&mut self, socket: usize, line: LineAddr, t: Stamp) -> Stamp {
        let inner = &mut *self.inner;
        self.sw
            .span(self.layers.dram, || inner.replica_write(socket, line, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    #[test]
    fn self_time_partitions_wall_time() {
        let sw = Stopwatch::new(3, 0);
        sw.span(1, || {
            sleep(Duration::from_millis(2));
            sw.span(2, || sleep(Duration::from_millis(2)));
        });
        let wall = sw.stop() as f64;
        let raw: f64 = (0..3).map(|l| sw.raw_ns(l)).sum();
        assert!((raw - wall).abs() < 1e-6 * wall, "every tick charged once");
        assert!(sw.ns(1) >= 1.9e6 && sw.ns(2) >= 1.9e6);
        assert_eq!((sw.calls(1), sw.calls(2)), (1, 1));
        let net: f64 = (0..3).map(|l| sw.ns(l)).sum();
        assert!(net <= sw.net_wall() + 1.0);
        assert!(sw.coverage(0) > 0.99 && sw.coverage(0) <= 1.0 + 1e-9);
    }

    #[test]
    fn calibration_removes_the_cost_of_empty_spans() {
        let sw = Stopwatch::new(2, 0);
        let cost = sw.cost();
        assert!(cost.inner > 0.0 && cost.outer > 0.0, "{cost:?}");
        for _ in 0..100_000 {
            sw.span(1, || std::hint::black_box(()));
        }
        sw.stop();
        // Empty spans hold no work: what is left of them after the
        // calibrated cost is small next to the raw clock cost.
        assert!(
            sw.ns(1) < 0.5 * sw.raw_ns(1),
            "net {} raw {}",
            sw.ns(1),
            sw.raw_ns(1)
        );
    }

    #[test]
    fn work_outside_spans_lowers_coverage() {
        let sw = Stopwatch::new(2, 0);
        sleep(Duration::from_millis(4));
        sw.span(1, || sleep(Duration::from_millis(1)));
        sw.stop();
        assert!(sw.coverage(0) < 0.5, "{}", sw.coverage(0));
    }
}
