//! Estimators. Everything here is a pure function of recorded numbers, so
//! the unit tests below pin the arithmetic the benchmark's bounds rest on.

use std::time::Duration;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// value with at least `p` percent of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The median, or zero when nothing was measured (the run is then reported
/// as not correct, for it attempted nothing).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Set-up repeats wanted after the discarded first one, and the least time
/// repeating must go on for.
pub const SETUP_REPEATS: usize = 15;
pub const SETUP_SECONDS: f64 = 2.0;

/// Whether set-up has been repeated often enough: one repeat to discard
/// (it pays for cold caches and a core that was asleep; the estimators
/// take `repeats[1..]`), then at least [`SETUP_REPEATS`], and on until
/// [`SETUP_SECONDS`] have passed since the first began.
pub fn enough_setups(repeats: usize, seconds: f64) -> bool {
    repeats > SETUP_REPEATS && seconds >= SETUP_SECONDS
}

/// The least of the values. A set-up is tens of milliseconds of
/// single-shot work, so anything that disturbs the box lands on it whole:
/// the prototype's medians moved 30 % between runs of one binary, the
/// minima 5 %.
pub fn least(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "least of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the driver computes over ten runs, here applied to
/// the windows of one run. Quartiles as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn iqr_rel(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let v = sorted(values);
    let quantile = |k: f64| {
        let pos = k * (v.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    (quantile(3.0) - quantile(1.0)) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// The ops of one measurement window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Position in the phase, warm-up windows counted.
    pub index: usize,
    pub latencies_ms: Vec<f64>,
    /// What the callee alone took, send to return. On a closed loop that is
    /// the latency.
    pub calls_ms: Vec<f64>,
    pub work: f64,
    pub seconds: f64,
}

/// One run's timed phase: a discarded warm-up window, then measured
/// windows. Each end-to-end number is the **median over windows** of the
/// window's own statistic, so one disturbed window (a neighbour's burst on
/// a shared box) cannot move it.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub windows: Vec<Window>,
}

impl Phase {
    fn per_window(&self, f: impl Fn(&Window) -> Option<f64>) -> Vec<f64> {
        self.windows.iter().filter_map(f).collect()
    }

    /// Work per second of each window.
    pub fn rates(&self) -> Vec<f64> {
        self.per_window(|w| (w.seconds > 0.0).then(|| w.work / w.seconds))
    }

    /// Nearest-rank `p`th latency percentile of each non-empty window.
    pub fn percentiles(&self, p: f64) -> Vec<f64> {
        self.per_window(|w| {
            (!w.latencies_ms.is_empty()).then(|| nearest_rank(&sorted(&w.latencies_ms), p))
        })
    }

    /// Every call time of the phase.
    pub fn calls(&self) -> Vec<f64> {
        let calls = self.windows.iter().flat_map(|w| w.calls_ms.iter().copied());
        calls.collect()
    }

    pub fn samples(&self) -> usize {
        self.windows.iter().map(|w| w.latencies_ms.len()).sum()
    }

    /// Every latency of the phase, ascending (for the tail percentiles
    /// that one window has too few samples for).
    pub fn pooled_sorted(&self) -> Vec<f64> {
        let all: Vec<f64> = self
            .windows
            .iter()
            .flat_map(|w| w.latencies_ms.iter().copied())
            .collect();
        sorted(&all)
    }

    /// The windows that were traced, or the ones that were not: the traced
    /// pass records spans in every second window, so that what tracing
    /// costs is read from neighbours in time and not from two phases the
    /// machine may have run at two speeds.
    pub fn with_tracing(&self, traced: bool) -> Phase {
        let windows = self
            .windows
            .iter()
            .filter(|w| traced_window(w.index) == traced);
        Phase {
            windows: windows.cloned().collect(),
        }
    }
}

/// Whether the traced pass records spans in window `index`.
pub fn traced_window(index: usize) -> bool {
    index % 2 == 1
}

/// What a window's length is measured on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Clock {
    /// From the last completion of the window before it to its own last
    /// completion, so its rate is work over the time that work took:
    /// counting ops per fixed 2.5 seconds would quantise a 140 ms op into
    /// 6 % steps. For loops that do nothing between ops but wait.
    Completions,
    /// The sum of the call times, for a loop that spends time between ops
    /// on something else (the reference samples) and reports call times on
    /// the reference clock.
    Calls,
}

/// Sorts ops into windows of a nominal length, dropping the first `discard`
/// windows and any incomplete last one.
pub struct Windower {
    window: Duration,
    discard: usize,
    clock: Clock,
    windows: Vec<(Window, Duration)>,
}

impl Windower {
    pub fn new(window: Duration, discard: usize, clock: Clock) -> Self {
        Windower {
            window,
            discard,
            clock,
            windows: Vec::new(),
        }
    }

    /// The window an op that completes `at` after the phase started is in.
    pub fn index(&self, at: Duration) -> usize {
        (at.as_nanos() / self.window.as_nanos().max(1)) as usize
    }

    /// Records an op in the window that holds `at` (on the completions
    /// clock, when it completed), whose user waited `latency` of which the
    /// callee took `call`, and that did `work` units.
    pub fn record(&mut self, at: Duration, latency: Duration, call: Duration, work: f64) {
        let k = self.index(at);
        if self.windows.len() <= k {
            self.windows.resize_with(k + 1, Default::default);
        }
        let (w, last_done) = &mut self.windows[k];
        w.latencies_ms.push(latency.as_secs_f64() * 1e3);
        w.calls_ms.push(call.as_secs_f64() * 1e3);
        w.work += work;
        *last_done = (*last_done).max(at);
    }

    /// The measured windows of a phase that ran for `elapsed`.
    pub fn finish(mut self, elapsed: Duration) -> Phase {
        let complete = self.index(elapsed);
        self.windows.truncate(complete);
        let mut start = Duration::ZERO;
        let mut windows = Vec::new();
        for (k, (mut w, last_done)) in self.windows.into_iter().enumerate() {
            if w.latencies_ms.is_empty() {
                continue;
            }
            w.index = k;
            w.seconds = match self.clock {
                Clock::Completions => (last_done - start).as_secs_f64(),
                Clock::Calls => w.calls_ms.iter().sum::<f64>() / 1e3,
            };
            start = last_done;
            if k >= self.discard {
                windows.push(w);
            }
        }
        Phase { windows }
    }
}

/// One request of an open loop, as offsets from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenOp {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When it was actually sent.
    pub sent: Duration,
    /// When its reply arrived.
    pub done: Duration,
}

impl OpenOp {
    /// Latency a user on the schedule saw: from the due time, so a stalled
    /// reply lengthens the requests queued behind it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator ran.
    pub fn sched_lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Send to reply, what the callee alone took.
    pub fn call(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// Due time of request `i` of a client that sends every `interval`,
/// starting at `offset`: an absolute schedule, never relative to the
/// previous reply.
pub fn due_time(offset: Duration, interval: Duration, i: u64) -> Duration {
    offset + Duration::from_nanos(interval.as_nanos() as u64 * i)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn nearest_rank_is_the_textbook_definition() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 95.0), 19.0);
        assert_eq!(nearest_rank(&v, 50.0), 10.0);
        assert_eq!(nearest_rank(&v, 100.0), 20.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        // 13 samples: ceil(0.95 * 13) = 13, the maximum.
        let w: Vec<f64> = (1..=13).map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 95.0), 13.0);
        assert_eq!(nearest_rank(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn set_up_is_the_least_repeat_after_the_discarded_one() {
        // The first repeat is the quickest here and still does not count;
        // one repeat hit by a burst moves nothing.
        let repeats = [0.020, 0.031, 0.093, 0.030, 0.033];
        assert_eq!(least(&repeats[1..]), 0.030);
        assert!(!enough_setups(5, 9.0), "five repeats are too few");
        assert!(!enough_setups(16, 0.5), "sixteen in half a second");
        assert!(enough_setups(16, 2.0));
    }

    #[test]
    fn iqr_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_rel(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    fn window(latency_ms: f64, ops: usize) -> Window {
        Window {
            latencies_ms: vec![latency_ms; ops],
            work: ops as f64,
            seconds: 1.0,
            ..Window::default()
        }
    }

    #[test]
    fn one_poisoned_window_moves_no_median() {
        let mut windows = vec![window(5.0, 100); 9];
        // A window in which the box stalled: a tenth of the work, 40x the latency.
        windows.push(window(200.0, 10));
        let phase = Phase { windows };
        assert_eq!(median(&phase.rates()), 100.0);
        assert_eq!(median(&phase.percentiles(50.0)), 5.0);
        assert_eq!(median(&phase.percentiles(95.0)), 5.0);
        // The pooled tail does see it, which is why it is per-layer only.
        assert_eq!(nearest_rank(&phase.pooled_sorted(), 99.9), 200.0);
        assert_eq!(phase.samples(), 910);
    }

    #[test]
    fn windower_discards_warm_up_and_the_incomplete_tail() {
        let mut w = Windower::new(Duration::from_secs(1), 1, Clock::Completions);
        for (done_ms, lat) in [
            (100, 9),
            (900, 9),
            (1400, 1),
            (1900, 1),
            (2500, 2),
            (3200, 7),
        ] {
            w.record(Duration::from_millis(done_ms), MS * lat, MS * lat, 1.0);
        }
        let phase = w.finish(Duration::from_millis(3300));
        assert_eq!(phase.windows.len(), 2);
        assert_eq!(phase.windows[0].latencies_ms, vec![1.0, 1.0]);
        assert_eq!(phase.windows[1].latencies_ms, vec![2.0]);
        assert_eq!((phase.windows[0].index, phase.windows[1].index), (1, 2));
        // Window 1 ran from 0.9 s to 1.9 s, window 2 from 1.9 s to 2.5 s.
        assert_eq!(phase.rates(), vec![2.0, 1.0 / 0.6]);
    }

    #[test]
    fn window_rates_are_not_quantised_by_the_op_count() {
        // A steady 140 ms op: 14 or 15 fit a 2 s window, the rate is one.
        let mut w = Windower::new(Duration::from_secs(2), 0, Clock::Completions);
        for i in 1..=100u32 {
            w.record(MS * 140 * i, MS * 140, MS * 140, 1.0);
        }
        let rates = w.finish(Duration::from_secs(14)).rates();
        assert_eq!(rates.len(), 7);
        for r in rates {
            assert!((r - 1.0 / 0.14).abs() < 1e-9, "{r}");
        }
    }

    #[test]
    fn on_the_call_clock_time_between_ops_does_not_count() {
        // A 100 ms op every 150 ms: the other 50 ms are the harness's own.
        let mut w = Windower::new(Duration::from_secs(3), 0, Clock::Calls);
        for i in 1..=40u32 {
            w.record(MS * 150 * i, MS * 100, MS * 100, 1.0);
        }
        for r in w.finish(Duration::from_secs(6)).rates() {
            assert!((r - 10.0).abs() < 1e-9, "{r}");
        }
    }

    #[test]
    fn every_second_window_is_traced() {
        let windows = (1..=10).map(|index| Window {
            index,
            calls_ms: vec![if traced_window(index) { 1.02 } else { 1.0 }],
            ..window(1.0, 1)
        });
        let phase = Phase {
            windows: windows.collect(),
        };
        let (on, off) = (phase.with_tracing(true), phase.with_tracing(false));
        assert_eq!((on.windows.len(), off.windows.len()), (5, 5));
        let overhead = median(&on.calls()) / median(&off.calls()) - 1.0;
        assert!((overhead - 0.02).abs() < 1e-12);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let op = OpenOp {
            due: MS * 40,
            sent: MS * 55,
            done: MS * 57,
        };
        assert_eq!(
            (op.sched_lag(), op.call(), op.latency()),
            (MS * 15, MS * 2, MS * 17)
        );
    }

    #[test]
    fn clients_are_offset_on_one_absolute_schedule() {
        assert_eq!(due_time(MS * 10, MS * 20, 3), MS * 70);
    }
}
