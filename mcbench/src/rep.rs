//! What one repetition of a workload reports, and the helpers the
//! workloads share.

use std::time::{Duration, Instant};

/// One repetition: set-up, measured phase and output check, each timed
/// on the host, plus the simulated outputs that must repeat exactly.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host time spent building the measured phase's inputs.
    pub setup_ns: u64,
    /// Host time of the measured phase.
    pub run_ns: u64,
    /// Host time of the benchmark's own output checks.
    pub check_ns: u64,
    /// Simulated transactions completed in the measured phase.
    pub txns: u64,
    /// Operations attempted (replays, pool jobs, cube runs, checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// md5 of the simulated outputs; equal across repetitions, traced or not.
    pub digest: String,
    /// The simulated outputs the digest covers, human-readable.
    pub summary: String,
    /// Per-layer readings of this repetition, by metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// How slow the host ran around this repetition: the mean of the
    /// reference-loop times just before and just after it, over
    /// `speed::NOMINAL_NS`. Set by the driver.
    pub scale: f64,
}

impl Rep {
    /// Set-up, measured phase and check together: what a user waits for.
    pub fn wall_ns(&self) -> u64 {
        self.setup_ns + self.run_ns + self.check_ns
    }

    /// `ns` of host time in seconds, scaled to the reference host's speed.
    pub fn scaled_s(&self, ns: u64) -> f64 {
        ns as f64 / 1e9 / self.scale
    }

    /// The per-layer reading `name`, 0 when this repetition has none.
    pub fn reading(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Records a per-layer reading.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Nanoseconds in a duration, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds since `t`.
pub fn since(t: Instant) -> u64 {
    ns(t.elapsed())
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs `f`, turning a panic into `None` (the panic message still goes
/// to standard error through the default hook).
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}
