//! Order statistics and the OS counters read from `/proc`.

/// The `p`-quantile (0..=1) of an ascending slice by nearest rank: the
/// smallest sample with at least `p` of the samples at or below it.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `p`-quantile of unsorted samples, by nearest rank.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Median of unsorted samples (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Linux reports CPU times in clock ticks of 1/100 s on every
/// architecture this repo builds for.
const NS_PER_TICK: u64 = 10_000_000;

/// CPU time consumed, split the way `/proc/<..>/stat` splits it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTime {
    pub user_ns: u64,
    pub sys_ns: u64,
}

impl CpuTime {
    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime { user_ns: self.user_ns - earlier.user_ns, sys_ns: self.sys_ns - earlier.sys_ns }
    }

    pub fn total_ns(self) -> u64 {
        self.user_ns + self.sys_ns
    }
}

/// utime/stime from a `stat` file. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_stat(text: &str) -> Option<CpuTime> {
    let mut fields = text[text.rfind(')')? + 1..].split_ascii_whitespace();
    // After ")": state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTime { user_ns: utime * NS_PER_TICK, sys_ns: stime * NS_PER_TICK })
}

fn ctx_switches_in(status: &str) -> u64 {
    status
        .lines()
        .filter_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.ends_with("voluntary_ctxt_switches").then(|| value.trim().parse::<u64>().ok())?
        })
        .sum()
}

/// CPU time and context switches (voluntary + involuntary) of a set of
/// threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadUsage {
    pub cpu: CpuTime,
    pub ctx_switches: u64,
}

impl ThreadUsage {
    pub fn since(self, earlier: ThreadUsage) -> ThreadUsage {
        ThreadUsage {
            cpu: self.cpu.since(earlier.cpu),
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// Usage of the calling thread, and of every other thread of the
/// process together — with the client on the calling thread, the
/// in-process server.
pub fn usage_by_thread() -> (ThreadUsage, ThreadUsage) {
    let me = std::fs::read_link("/proc/thread-self").ok();
    let me = me.as_deref().and_then(|p| p.file_name());
    let (mut mine, mut others) = (ThreadUsage::default(), ThreadUsage::default());
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return (mine, others);
    };
    for task in tasks.filter_map(Result::ok) {
        let read = |file: &str| std::fs::read_to_string(task.path().join(file)).unwrap_or_default();
        let stat = read("stat");
        let Some(cpu) = parse_stat(&stat) else {
            continue;
        };
        let slot = if Some(task.file_name().as_os_str()) == me { &mut mine } else { &mut others };
        slot.cpu.user_ns += cpu.user_ns;
        slot.cpu.sys_ns += cpu.sys_ns;
        slot.ctx_switches += ctx_switches_in(&read("status"));
    }
    (mine, others)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u32], 0.99), 7);
        assert_eq!(percentile::<u32>(&[], 0.5), 0);
        // 1000 samples: p99 leaves exactly ten beyond it.
        let v: Vec<u32> = (0..1000).collect();
        assert_eq!(percentile(&v, 0.99), 989);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        let eight = [8.0, 3.0, 5.0, 1.0, 7.0, 2.0, 6.0, 4.0];
        assert_eq!(quantile(&eight, 0.10), 1.0, "fewer than ten samples: the lowest");
        assert_eq!(quantile(&eight, 0.90), 8.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!((quantile(&hundred, 0.10), quantile(&hundred, 0.90)), (10.0, 90.0));
    }

    #[test]
    fn stat_and_status_parsing() {
        let stat = "123 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 40 0 0 20 0 3 0 100 0 0";
        let cpu = parse_stat(stat).unwrap();
        assert_eq!((cpu.user_ns, cpu.sys_ns), (2_500_000_000, 400_000_000));
        let status = "Name:\tx\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(ctx_switches_in(status), 15);
    }

    #[test]
    fn usage_is_split_by_thread() {
        let burn = || {
            let start = std::time::Instant::now();
            while start.elapsed().as_millis() < 80 {
                std::hint::spin_loop();
            }
        };
        let (mine0, others0) = usage_by_thread();
        let (burned, done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                burn();
                burned.wait();
                // Stay listed under /proc/self/task while it is read.
                done.wait();
            });
            burned.wait();
            let (mine, others) = usage_by_thread();
            done.wait();
            assert!(
                others.since(others0).cpu.total_ns() >= 60_000_000,
                "the burner is another thread"
            );
            // This thread only waited (other tests run on other threads).
            assert!(mine.since(mine0).cpu.total_ns() < 60_000_000);
        });
        burn();
        let (mine, _) = usage_by_thread();
        assert!(mine.since(mine0).cpu.total_ns() >= 60_000_000, "own burn is the caller's");
    }
}
