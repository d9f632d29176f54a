//! What `/proc/self` says about this process: peak resident set, CPU
//! seconds, voluntary context switches.

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// `VmHWM`, the peak resident set so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_field("VmHWM").map(|kb| kb as f64 / 1024.0)
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU seconds of every thread of the process.
    pub cpu_s: f64,
    /// Voluntary context switches of the main thread: how often it
    /// blocked or slept, as opposed to being preempted.
    pub vol_ctx: u64,
}

impl Usage {
    /// What was used between `earlier` and this reading.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            vol_ctx: self.vol_ctx - earlier.vol_ctx,
        }
    }
}

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100
/// on every architecture this builds for.
const TICKS_PER_S: f64 = 100.0;

pub fn usage() -> Usage {
    let cpu_s = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may hold spaces; the fields resume after ')'.
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
            Some(ticks as f64 / TICKS_PER_S)
        })
        .unwrap_or(0.0);
    Usage {
        cpu_s,
        vol_ctx: status_field("voluntary_ctxt_switches").unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_self_is_readable_here() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        let a = usage();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(usage().cpu_s >= a.cpu_s);
    }
}
