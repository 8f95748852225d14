//! Open-loop request schedule: requests fall due in bursts of `burst`,
//! burst `j` at `j × burst × period` after the start, whether or not
//! earlier ones were answered. A stalled
//! generator sends the overdue requests as soon as it runs again, and
//! each request is timed from when it was *due*, so a stall shows up in
//! the latency of every request it delayed. How late the generator ran
//! is reported beside the latencies.

/// The schedule, in ns since the run's start.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    period_ns: u64,
    burst: u64,
    total: u64,
    next: u64,
}

impl OpenLoop {
    /// `rate` requests per second on average, due `burst` at a time,
    /// `total` requests in all.
    pub fn new(rate: u64, burst: u64, total: u64) -> OpenLoop {
        OpenLoop {
            period_ns: 1_000_000_000 / rate.max(1),
            burst: burst.max(1),
            total,
            next: 0,
        }
    }

    /// Due time of request `k`: that of its burst (no accumulated
    /// rounding drift).
    pub fn due_ns(&self, k: u64) -> u64 {
        k / self.burst * self.burst * self.period_ns
    }

    /// The next request that is due at `now_ns`, as `(seq, due_ns)`;
    /// advances the schedule. `None` when nothing is due yet.
    pub fn take_due(&mut self, now_ns: u64) -> Option<(u64, u64)> {
        if self.next >= self.total || self.due_ns(self.next) > now_ns {
            return None;
        }
        let k = self.next;
        self.next += 1;
        Some((k, self.due_ns(k)))
    }

    /// How long until the next request is due (0 if overdue), or `None`
    /// when every request has been issued.
    pub fn wait_ns(&self, now_ns: u64) -> Option<u64> {
        (self.next < self.total).then(|| self.due_ns(self.next).saturating_sub(now_ns))
    }
}

/// Latency and lateness accounting for one open-loop run.
#[derive(Clone, Debug, Default)]
pub struct Accounting {
    /// Latency of each answered request from its due time, ns.
    // bounded: one entry per request of a fixed-size schedule
    pub latency_ns: Vec<u64>,
    /// Largest gap between a request's due time and its send, ns.
    pub late_max_ns: u64,
    /// Requests never answered within the deadline.
    pub timeouts: u64,
}

impl Accounting {
    /// A request due at `due_ns` went out at `sent_ns`.
    pub fn sent(&mut self, due_ns: u64, sent_ns: u64) {
        self.late_max_ns = self.late_max_ns.max(sent_ns.saturating_sub(due_ns));
    }

    /// A request due at `due_ns` was answered at `done_ns`.
    pub fn answered(&mut self, due_ns: u64, done_ns: u64) {
        self.latency_ns.push(done_ns.saturating_sub(due_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate_without_drift() {
        let s = OpenLoop::new(3, 1, 10);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(3), 999_999_999);
        let s = OpenLoop::new(2000, 1, 10);
        assert_eq!(s.due_ns(2000), 1_000_000_000);
    }

    #[test]
    fn a_burst_falls_due_at_once_and_keeps_the_mean_rate() {
        let mut s = OpenLoop::new(1000, 4, 8); // four every 4 ms
        assert_eq!(s.due_ns(3), 0);
        assert_eq!(s.due_ns(4), 4_000_000);
        let first: Vec<_> = std::iter::from_fn(|| s.take_due(0)).collect();
        assert_eq!(first, vec![(0, 0), (1, 0), (2, 0), (3, 0)]);
        assert_eq!(s.wait_ns(1_000_000), Some(3_000_000));
    }

    #[test]
    fn a_stall_releases_every_overdue_request_with_its_own_due_time() {
        let mut s = OpenLoop::new(1000, 1, 5); // one per ms
        assert_eq!(s.take_due(0), Some((0, 0)));
        assert_eq!(s.take_due(500_000), None);
        assert_eq!(s.wait_ns(500_000), Some(500_000));
        // The generator stalls until 3.2 ms: requests 1..=3 are overdue.
        let mut acct = Accounting::default();
        let now = 3_200_000;
        let mut released = Vec::new();
        while let Some((k, due)) = s.take_due(now) {
            acct.sent(due, now);
            released.push(k);
        }
        assert_eq!(released, vec![1, 2, 3]);
        assert_eq!(
            acct.late_max_ns, 2_200_000,
            "request 1 went out 2.2 ms late"
        );
        assert_eq!(s.wait_ns(now), Some(800_000));
        // Latency runs from the due time, so the stall is charged.
        acct.answered(1_000_000, 3_300_000);
        assert_eq!(acct.latency_ns, vec![2_300_000]);
        assert_eq!(s.take_due(10_000_000), Some((4, 4_000_000)));
        assert_eq!(s.take_due(10_000_000), None);
        assert_eq!(s.wait_ns(10_000_000), None, "schedule exhausted");
    }
}
