//! Small helpers: a seeded RNG for workload inputs, and CPU-time reads
//! from `/proc` for the threads a workload runs on.

use std::time::Duration;

/// SplitMix64: the workload generator's RNG (inputs depend on the seed
/// only, never on the library's RNG).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x853C_49E6_748F_EA9B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct values from `pool`, in draw order.
    pub fn pick(&mut self, pool: &[usize], k: usize) -> Vec<usize> {
        let mut v = pool.to_vec();
        let k = k.min(v.len());
        for i in 0..k {
            let j = i + self.below(v.len() - i);
            v.swap(i, j);
        }
        v.truncate(k);
        v
    }
}

/// This thread's kernel id, from the `/proc/thread-self` link.
pub fn thread_id() -> Option<u64> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU time a thread has run, from `schedstat` (ns resolution).
fn thread_cpu(tid: &str) -> Option<Duration> {
    let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(Duration::from_nanos(ns))
}

/// Summed CPU time of every thread of this process except `skip`.
/// Threads that exited since the last call no longer count, so callers
/// read it while the threads they measure are alive.
pub fn process_cpu_except(skip: Option<u64>) -> Duration {
    let Ok(rd) = std::fs::read_dir("/proc/self/task") else {
        return Duration::ZERO;
    };
    rd.flatten()
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .filter(|tid| skip.is_none_or(|s| tid.parse::<u64>().ok() != Some(s)))
        .filter_map(|tid| thread_cpu(&tid))
        .sum()
}

/// The calling thread's CPU clock: its `schedstat` file, opened once and
/// re-read from the start on each call (one `pread`, ns resolution).
pub struct ThreadClock(Option<std::fs::File>);

impl ThreadClock {
    /// Opens the clock of the calling thread.
    pub fn new() -> ThreadClock {
        ThreadClock(std::fs::File::open("/proc/thread-self/schedstat").ok())
    }

    /// CPU time the thread has run so far (zero if unreadable). Call it
    /// from the thread that opened the clock: it yields first, because
    /// the kernel brings a running thread's count up to date only at the
    /// scheduler tick (every 4 ms at 250 Hz) or when the thread leaves
    /// the CPU, and a yield is such a point.
    pub fn now(&self) -> Duration {
        use std::os::unix::fs::FileExt;
        let Some(file) = &self.0 else {
            return Duration::ZERO;
        };
        std::thread::yield_now();
        let mut buf = [0u8; 96];
        let n = file.read_at(&mut buf, 0).unwrap_or(0);
        std::str::from_utf8(&buf[..n])
            .ok()
            .and_then(|t| t.split_whitespace().next()?.parse().ok())
            .map_or(Duration::ZERO, Duration::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_for_a_seed_and_picks_distinct_values() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let pool: Vec<usize> = (0..50).collect();
        let mut p = a.pick(&pool, 20);
        assert_eq!(p.len(), 20);
        p.sort_unstable();
        p.dedup();
        assert_eq!(p.len(), 20);
    }

    #[test]
    fn thread_clock_resolves_less_than_a_tick() {
        let clock = ThreadClock::new();
        let t0 = clock.now();
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let spent = clock.now().saturating_sub(t0);
        assert!(spent > Duration::ZERO && spent < Duration::from_millis(4));
    }
}
