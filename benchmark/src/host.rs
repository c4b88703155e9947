//! Host fingerprint, the yardstick that reads the host's speed between
//! ops, and the host-side readings that explain why two sets of runs of
//! one commit can disagree: steal time, load average, peak RSS.

use crate::stats::quantile_sorted;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(-1.0)
}

/// Peak resident set of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// A fixed amount of benchmark-owned single-threaded work, timed between
/// ops to read how fast the host is *now*.
///
/// This VM shares its cores' caches and memory pipeline with other
/// tenants, and op times of one binary move by 30-100 % for minutes at a
/// time while a dependent-multiply loop (what this file used to time)
/// does not move at all. Two kernels that lean on what the neighbours
/// take away do move with the ops: point-in-tetrahedron tests with a
/// divide and a cube root over 48 KiB of coordinates, and an indexed
/// gather over 24 MiB. Their times relative to a calm host, multiplied
/// and square-rooted, are the host's slowdown; README "Host and measured
/// spread" has the measurements the choice rests on.
pub struct Yardstick {
    tets: Vec<f64>,
    index: Vec<u32>,
    values: Vec<f64>,
}

/// The two kernels' times on this host when it is calm. They only fix
/// the unit: a different host scales every time metric by one constant.
const TETS_CALM_S: f64 = 7.2e-3;
const GATHER_CALM_S: f64 = 13.5e-3;

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut logistic = 0.123f64;
        let tets = (0..512 * 12)
            .map(|_| {
                logistic = 3.9 * logistic * (1.0 - logistic);
                logistic
            })
            .collect();
        let n = 1usize << 21;
        let mut xorshift = 88_172_645_463_325_252u64;
        let index = (0..n)
            .map(|_| {
                xorshift ^= xorshift << 13;
                xorshift ^= xorshift >> 7;
                xorshift ^= xorshift << 17;
                (xorshift % n as u64) as u32
            })
            .collect();
        Yardstick {
            tets,
            index,
            values: vec![1.0; n],
        }
    }

    fn tets_s(&self) -> f64 {
        let cross = |u: [f64; 3], w: [f64; 3]| {
            [
                u[1] * w[2] - u[2] * w[1],
                u[2] * w[0] - u[0] * w[2],
                u[0] * w[1] - u[1] * w[0],
            ]
        };
        let dot = |u: [f64; 3], w: [f64; 3]| u[0] * w[0] + u[1] * w[1] + u[2] * w[2];
        let t0 = Instant::now();
        let (mut inside, mut sum) = (0u32, 0.0);
        for round in 0..400 {
            let p = [0.3 + 1e-4 * f64::from(round), 0.4, 0.5];
            for t in self.tets.chunks_exact(12) {
                let corner = |k: usize| [t[3 * k] - p[0], t[3 * k + 1] - p[1], t[3 * k + 2] - p[2]];
                let (a, b, c, d) = (corner(0), corner(1), corner(2), corner(3));
                let faces = [
                    dot(a, cross(b, c)),
                    dot(b, cross(c, d)),
                    dot(c, cross(d, a)),
                    dot(d, cross(a, b)),
                ];
                let h = faces.iter().sum::<f64>().abs().cbrt();
                sum += h;
                if faces.iter().all(|f| f / h > -1e-9) {
                    inside += 1;
                }
            }
        }
        black_box((inside, sum));
        t0.elapsed().as_secs_f64()
    }

    fn gather_s(&self) -> f64 {
        let t0 = Instant::now();
        let mut acc = [0.0f64; 4];
        for four in self.index.chunks_exact(4) {
            for (a, &i) in acc.iter_mut().zip(four) {
                *a += self.values[i as usize];
            }
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }

    /// How much slower than calm the host is right now: 1.0 on a calm
    /// host, 1.3 when the yardstick takes 30 % longer. About 20 ms.
    pub fn slowdown(&self) -> f64 {
        ((self.tets_s() / TETS_CALM_S) * (self.gather_s() / GATHER_CALM_S)).sqrt()
    }
}

/// Times of ops divided by the host's slowdown around each of them (the
/// mean of the yardstick readings before and after the op).
pub struct HostScaled {
    yardstick: Yardstick,
    before: f64,
    /// One slowdown per op, in op order.
    pub slowdowns: Vec<f64>,
}

impl HostScaled {
    /// Takes the first reading: call right before the first timed op, and
    /// after `peak_rss_mb` has been read (the yardstick holds 24 MiB).
    pub fn begin() -> HostScaled {
        let yardstick = Yardstick::new();
        let before = yardstick.slowdown();
        HostScaled {
            yardstick,
            before,
            slowdowns: Vec::new(),
        }
    }

    /// Call right after an op: the slowdown to divide its times by.
    pub fn op_done(&mut self) -> f64 {
        let after = self.yardstick.slowdown();
        let slowdown = 0.5 * (self.before + after);
        self.before = after;
        self.slowdowns.push(slowdown);
        slowdown
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Readings taken when the run starts; [`HostStart::finish`] takes the
/// matching readings at the end.
pub struct HostStart {
    jiffies: Option<(u64, u64)>,
    loadavg: f64,
}

#[derive(Debug, Clone)]
pub struct HostBlock {
    pub nproc: usize,
    pub cpu_model: String,
    pub target_features: String,
    pub rustc: String,
    pub git_commit: String,
    pub loadavg_before: f64,
    pub loadavg_after: f64,
    /// Lowest, median and highest yardstick reading of the run.
    pub slowdown: [f64; 3],
    /// Share of all CPU time over the run that the hypervisor stole.
    pub steal_frac: f64,
}

impl HostStart {
    pub fn begin() -> HostStart {
        HostStart {
            loadavg: loadavg(),
            jiffies: cpu_jiffies(),
        }
    }

    /// `slowdowns`: the yardstick readings the workload took.
    pub fn finish(self, slowdowns: &[f64]) -> HostBlock {
        let mut sorted = slowdowns.to_vec();
        sorted.sort_by(f64::total_cmp);
        let slowdown = match sorted.as_slice() {
            [] => [0.0; 3],
            s => [s[0], quantile_sorted(s, 0.5), s[s.len() - 1]],
        };
        let steal_frac = match (self.jiffies, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let mut features = Vec::new();
        for (on, name) in [
            (cfg!(target_feature = "avx2"), "avx2"),
            (cfg!(target_feature = "fma"), "fma"),
            (cfg!(target_feature = "avx512f"), "avx512f"),
            (cfg!(target_feature = "neon"), "neon"),
            (cfg!(target_feature = "sve"), "sve"),
        ] {
            if on {
                features.push(name);
            }
        }
        HostBlock {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu_model,
            target_features: features.join(","),
            rustc: command_line("rustc", &["--version"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            loadavg_before: self.loadavg,
            loadavg_after: loadavg(),
            slowdown,
            steal_frac,
        }
    }
}

impl HostBlock {
    /// Highest minus lowest yardstick reading, as a share of the median.
    pub fn slowdown_range_frac(&self) -> f64 {
        let [lo, median, hi] = self.slowdown;
        if median > 0.0 {
            (hi - lo) / median
        } else {
            0.0
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"target_features\":\"{}\",\"rustc\":\"{}\",\
             \"git_commit\":\"{}\",\"loadavg_before\":{},\"loadavg_after\":{},\
             \"slowdown_min\":{},\"slowdown_median\":{},\"slowdown_max\":{},\"steal_frac\":{}}}",
            self.nproc,
            json_escape(&self.cpu_model),
            self.target_features,
            json_escape(&self.rustc),
            json_escape(&self.git_commit),
            self.loadavg_before,
            self.loadavg_after,
            self.slowdown[0],
            self.slowdown[1],
            self.slowdown[2],
            self.steal_frac,
        )
    }
}

pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_op_gets_the_mean_of_the_readings_around_it() {
        let mut host = HostScaled::begin();
        let first = host.before;
        let slowdown = host.op_done();
        assert_eq!(slowdown, 0.5 * (first + host.before));
        assert_eq!(host.slowdowns, [slowdown]);
        // A reading is the ratio to a calm host of this class: far from
        // both 0 and infinity on any machine that can run the benchmark.
        assert!((0.05..50.0).contains(&slowdown), "{slowdown}");
    }
}
