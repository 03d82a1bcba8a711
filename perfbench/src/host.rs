//! The `host` block printed with every result: core count, the ISA level
//! `nufft-simd` dispatches to, cache sizes from `/sys`, the commit, and
//! whether the benchmark's thread count oversubscribes the cores.

use crate::json::quote;
use std::path::Path;

/// Worker threads every workload runs with.
pub const THREADS: usize = 2;

pub struct Host {
    pub nproc: usize,
    pub isa: &'static str,
    pub l2_bytes: Option<u64>,
    pub llc_bytes: Option<u64>,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Self {
        let (l2_bytes, llc_bytes) = cache_sizes();
        Host {
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            isa: nufft::simd::active_isa().name(),
            l2_bytes,
            llc_bytes,
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// True when the benchmark runs more workers than the host has cores.
    pub fn oversubscribed(&self) -> bool {
        THREADS > self.nproc
    }

    pub fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |b| b.to_string());
        format!(
            "{{\"nproc\":{},\"threads\":{},\"oversubscribed\":{},\"isa\":{},\"l2_bytes\":{},\
             \"llc_bytes\":{},\"commit\":{}}}",
            self.nproc,
            THREADS,
            self.oversubscribed(),
            quote(self.isa),
            opt(self.l2_bytes),
            opt(self.llc_bytes),
            quote(&self.commit)
        )
    }
}

/// `(L2, last-level)` unified/data cache sizes of CPU 0.
fn cache_sizes() -> (Option<u64>, Option<u64>) {
    let mut l2 = None;
    let mut llc: Option<(u32, u64)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if level == 2 {
            l2 = Some(bytes);
        }
        if llc.is_none_or(|(l, _)| level > l) {
            llc = Some((level, bytes));
        }
    }
    (l2, llc.map(|(_, b)| b))
}

/// A `/sys` cache size such as `2048K` or `300M`, in bytes.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// The commit checked out at `root`, read from `.git` without running git
/// (`None` outside a git checkout).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_suffixes() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
