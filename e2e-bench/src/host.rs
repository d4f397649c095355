//! The host's speed and memory.
//!
//! The shared virtual machines this benchmark runs on change speed by
//! up to a third for tens of seconds at a time, and a single run sees
//! only one or two such phases. So a run times a fixed calibration
//! kernel before each of its phases (every set-up, every slice of the
//! closed and open loops), and scales the host times that phase records
//! to the kernel's nominal time: `recorded = measured × NOMINAL_MS /
//! calibration`. A faster program still reads faster; a slower host
//! does not. The kernel is the benchmark's own code, so no change to
//! the program moves it.

use std::time::Instant;

/// The calibration kernel's time on the reference host (2 vCPUs of an
/// Intel Xeon at 2.0 GHz).
pub const NOMINAL_MS: f64 = 10.0;

const WORDS: usize = 512;
const STEPS: u32 = 1_000_000;
const REPS: usize = 3;

/// Integer work over an L1-resident table: shifts, loads, popcounts and
/// data-dependent indexing, like the kernels it stands in for.
fn kernel(table: &[u64; WORDS]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(u64::from((table[x as usize % WORDS] & x).count_ones()));
    }
    acc
}

/// Times the calibration kernel (all repetitions, in ms).
pub fn calibrate_ms() -> f64 {
    let mut table = [0u64; WORDS];
    for (i, word) in table.iter_mut().enumerate() {
        *word = (i as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    let table = std::hint::black_box(table);
    let start = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(kernel(&table));
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
