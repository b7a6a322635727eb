//! Run results: the per-IO response-time trace of one pattern execution.

use crate::stats::RunStats;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The result of executing one pattern (a *run* in the paper's
/// terminology): the full response-time trace plus bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Pattern label (e.g. `RW`, `4SR/1RW`, `SW(x4)`).
    pub label: String,
    /// Response time of each IO, in submission order.
    pub rts: Vec<Duration>,
    /// Warm-up prefix excluded from [`RunResult::summary`].
    pub io_ignore: u64,
    /// Device-observed elapsed time for the whole run (includes pauses).
    pub elapsed: Duration,
}

impl RunResult {
    /// Create a run result.
    pub fn new(
        label: impl Into<String>,
        rts: Vec<Duration>,
        io_ignore: u64,
        elapsed: Duration,
    ) -> Self {
        RunResult {
            label: label.into(),
            rts,
            io_ignore,
            elapsed,
        }
    }

    /// Statistics over the running phase (after `io_ignore`), the way
    /// the paper summarizes runs (§4.2: "we must ignore the start-up
    /// phase when summarizing the results of each run").
    pub fn summary(&self) -> Option<RunStats> {
        let start = (self.io_ignore as usize).min(self.rts.len());
        RunStats::from_rts(&self.rts[start..])
    }

    /// Statistics over *all* IOs including the start-up phase — what a
    /// naive benchmark would report (the dashed line of Figure 3).
    pub fn summary_all(&self) -> Option<RunStats> {
        RunStats::from_rts(&self.rts)
    }

    /// Running average including everything up to IO `i` (Figure 3's
    /// "Avg(rt) incl." curve).
    pub fn running_average(&self) -> Vec<Duration> {
        let mut out = Vec::with_capacity(self.rts.len());
        let mut sum = 0u128;
        for (i, rt) in self.rts.iter().enumerate() {
            sum += rt.as_nanos();
            out.push(Duration::from_nanos((sum / (i as u128 + 1)) as u64));
        }
        out
    }

    /// Running average excluding the start-up prefix (Figure 3's
    /// "Avg(rt) excl." curve); the first `io_ignore` entries repeat the
    /// first computed value for plot alignment.
    pub fn running_average_excluding(&self) -> Vec<Duration> {
        let skip = (self.io_ignore as usize).min(self.rts.len());
        let mut out = vec![Duration::ZERO; self.rts.len()];
        let mut sum = 0u128;
        for (i, rt) in self.rts.iter().enumerate().skip(skip) {
            sum += rt.as_nanos();
            out[i] = Duration::from_nanos((sum / (i - skip + 1) as u128) as u64);
        }
        let head = out.get(skip).copied().unwrap_or(Duration::ZERO);
        for slot in out.iter_mut().take(skip) {
            *slot = head;
        }
        out
    }

    /// Number of IOs in the run.
    pub fn len(&self) -> usize {
        self.rts.len()
    }

    /// True if the run recorded no IOs.
    pub fn is_empty(&self) -> bool {
        self.rts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn summary_skips_ignore_prefix() {
        let r = RunResult::new("RW", vec![ms(1), ms(1), ms(100), ms(100)], 2, ms(202));
        let s = r.summary().unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, ms(100));
        let all = r.summary_all().unwrap();
        assert_eq!(all.count, 4);
        assert!(
            all.mean < s.mean,
            "including cheap start-up lowers the average"
        );
    }

    #[test]
    fn running_averages_match_figure3_semantics() {
        let r = RunResult::new("RW", vec![ms(1), ms(1), ms(10), ms(10)], 2, ms(22));
        let incl = r.running_average();
        assert_eq!(incl[0], ms(1));
        assert_eq!(incl[3], ms(11) / 2); // (1+1+10+10)/4 = 5.5 ms
        let excl = r.running_average_excluding();
        assert_eq!(excl[2], ms(10));
        assert_eq!(excl[3], ms(10));
        assert_eq!(excl[0], ms(10), "prefix padded with first excluded value");
    }

    #[test]
    fn over_long_ignore_is_safe() {
        let r = RunResult::new("SR", vec![ms(1)], 10, ms(1));
        assert!(r.summary().is_none());
        assert_eq!(r.running_average_excluding(), vec![Duration::ZERO]);
    }

    #[test]
    fn serde_round_trip() {
        let r = RunResult::new("SW", vec![ms(2), ms(3)], 0, ms(5));
        let json = serde_json::to_string(&r).unwrap();
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rts, r.rts);
        assert_eq!(back.label, "SW");
    }
}
