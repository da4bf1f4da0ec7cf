//! Host-side measurement helpers: CPU time, peak RSS, order statistics,
//! a stable digest, and the build's provenance.

use std::fmt;
use std::time::Instant;

/// Process CPU time (user + system, all threads), in seconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the 64-bit
    // Linux layout (two 64-bit fields), and clock_gettime writes only
    // through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f`, returning its result with the wall and process-CPU
/// seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, process_cpu_s() - cpu0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Linear-interpolation quantile of `values` (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a share of the median (0 when the median is).
pub fn iqr_share(values: &[f64]) -> f64 {
    ratio(
        quantile(values, 0.75) - quantile(values, 0.25),
        median(values),
    )
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a, 64-bit: a digest that is stable across builds and runs
/// (unlike the standard library's randomly keyed hasher).
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u64(1);
                self.u64(x.to_bits());
            }
            None => self.u64(0),
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The digest folded to the 32 bits the reference files store.
    pub fn finish32(&self) -> u32 {
        (self.0 ^ (self.0 >> 32)) as u32
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of a value's `Debug` rendering, streamed without building the
/// string.
pub fn debug_digest(v: &impl fmt::Debug) -> u32 {
    let mut h = Fnv::default();
    fmt::write(&mut h, format_args!("{v:?}")).expect("digest writer cannot fail");
    h.finish32()
}

/// Git revision of the working directory's checkout, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc -V` of the compiler that built the benchmark.
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");
/// Cargo profile and optimisation level of this build.
pub const PROFILE: &str = env!("PERFBENCH_PROFILE");
