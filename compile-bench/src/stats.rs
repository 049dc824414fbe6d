//! Summaries of whole-pass samples and the failure tally.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`: the smallest
/// sample with at least `p` percent of the samples at or below it. Every
/// sample is one whole pass, so each carries the same job mix. `None`
/// for an empty slice.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Jobs attempted and failed over a run.
///
/// A job fails when its pass returned an error or when any of its
/// outputs differs from the value recorded at set-up; it counts once
/// either way. Set-up checks (uncached path, engine agreement, layer
/// reconciliation) count as one attempted job each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs run, including set-up checks.
    pub attempted: u64,
    /// Jobs that errored or whose outputs did not match.
    pub failed: u64,
}

impl Tally {
    /// One pass of `jobs` jobs, of which `mismatched` did not match.
    /// An errored pass counts every job as failed.
    pub fn pass(&mut self, jobs: usize, outcome: Result<usize, ()>) {
        self.attempted += jobs as u64;
        self.failed += match outcome {
            Ok(mismatched) => mismatched.min(jobs) as u64,
            Err(()) => jobs as u64,
        };
    }

    /// One stand-alone check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), when the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_whole_samples() {
        let passes: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(nearest_rank(&passes, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&passes, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&passes, 100.0), Some(10.0));
        // Never interpolates: every answer is one pass's time.
        assert_eq!(nearest_rank(&[3.0, 1.0], 50.0), Some(1.0));
        assert_eq!(nearest_rank(&[3.0, 1.0], 90.0), Some(3.0));
        assert_eq!(nearest_rank(&[7.5], 90.0), Some(7.5));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_p90_of_eleven_passes_is_the_tenth() {
        let passes: Vec<f64> = (1..=11).map(f64::from).collect();
        // ceil(0.9 · 11) = 10.
        assert_eq!(nearest_rank(&passes, 90.0), Some(10.0));
        assert_eq!(nearest_rank(&passes, 50.0), Some(6.0));
        // ceil(0.1 · 11) = 2: the second-fastest pass.
        assert_eq!(nearest_rank(&passes, 10.0), Some(2.0));
    }

    #[test]
    fn tally_counts_each_failed_job_once() {
        let mut t = Tally::default();
        t.pass(4, Ok(0));
        t.pass(4, Ok(1));
        assert_eq!((t.attempted, t.failed), (8, 1));
        // An errored pass fails all of its jobs; mismatches never exceed
        // the jobs of their pass.
        t.pass(4, Err(()));
        t.pass(4, Ok(9));
        assert_eq!((t.attempted, t.failed), (16, 9));
        t.check(true);
        t.check(false);
        assert_eq!((t.attempted, t.failed), (18, 10));
        assert_eq!(t.failed_frac(), 10.0 / 18.0);
    }

    #[test]
    fn clean_run_has_zero_failed_frac() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.pass(9, Ok(0));
        t.check(true);
        assert_eq!(t.failed_frac(), 0.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().expect("VmHWM readable") > 0.0);
        }
    }
}
