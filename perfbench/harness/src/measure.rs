//! Process clocks, medians and output digests.

use std::collections::BinaryHeap;
use std::time::Instant;

/// Process CPU seconds (user + system, every thread, exited ones too),
/// from `/proc/self/stat`. Linux reports them in clock ticks of 1/100 s.
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated, utime and stime being the 12th and
    // 13th of them.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let f: Vec<&str> = rest.split(' ').collect();
    let ticks = |i: usize| f[i].parse::<u64>().expect("numeric tick field");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Wall and CPU seconds of one call.
pub struct Timed<R> {
    /// The call's result.
    pub out: R,
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Seconds of one reference pass around the call (0 unless timed by
    /// [`Reference::time`]).
    pub ref_s: f64,
}

/// Times `f` on the wall clock and the process CPU clock.
pub fn timed<R>(f: impl FnOnce() -> R) -> Timed<R> {
    let cpu0 = cpu_secs();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    Timed {
        out,
        wall_s,
        cpu_s: cpu_secs() - cpu0,
        ref_s: 0.0,
    }
}

/// A fixed computation timed next to each repetition, written to resemble
/// an event-driven simulator without using any of this repository's code:
/// a binary heap of 4096 timed entries popped and re-pushed while each pop
/// updates a pseudo-random slot of a 1 MiB table.
///
/// The host this benchmark shares changes speed by up to 2x over tens of
/// seconds. A repetition's time in reference passes cancels most of that,
/// while a change to the simulator moves it just as it moves wall time.
pub struct Reference {
    heap: BinaryHeap<(u64, u32)>,
    table: Vec<u64>,
}

impl Reference {
    const OPS: u32 = 20_000;
    /// Passes timed on each side of a repetition (about 15 ms).
    const PASSES: usize = 15;

    /// Builds the heap and the table.
    pub fn new() -> Self {
        let mut x = 1u64;
        let heap = (0..4096u32)
            .map(|i| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 20, i)
            })
            .collect();
        Reference {
            heap,
            table: vec![0; 1 << 17],
        }
    }

    fn pass(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9u64;
        for _ in 0..Self::OPS {
            let (key, id) = self.heap.pop().expect("the heap never empties");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize ^ id as usize) & mask;
            self.table[slot] = self.table[slot].wrapping_add(key);
            if x & 7 == 0 {
                self.table.swap(slot, (x >> 3) as usize & mask);
            }
            self.heap.push((key.wrapping_add(x >> 40), id));
        }
        std::hint::black_box(&self.table);
        t0.elapsed().as_secs_f64()
    }

    /// Seconds of the fastest of [`Reference::PASSES`] passes.
    pub fn fastest_pass(&mut self) -> f64 {
        (0..Self::PASSES)
            .map(|_| self.pass())
            .fold(f64::INFINITY, f64::min)
    }

    /// Times `f` and the reference passes on both sides of it.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> Timed<R> {
        let before = self.fastest_pass();
        let mut t = timed(f);
        t.ref_s = 0.5 * (before + self.fastest_pass());
        t
    }
}

/// Timed repetitions of the same work.
#[derive(Debug, Default)]
pub struct Reps {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    refs: Vec<f64>,
}

impl Reps {
    /// Adds one repetition, timed by [`Reference::time`].
    pub fn push<R>(&mut self, t: &Timed<R>) {
        self.walls.push(t.wall_s);
        self.cpus.push(t.cpu_s);
        self.refs.push(t.ref_s);
    }

    /// Repetitions so far.
    pub fn len(&self) -> usize {
        self.walls.len()
    }

    /// Wall seconds of each repetition.
    pub fn walls(&self) -> &[f64] {
        &self.walls
    }

    /// Median wall seconds.
    pub fn median_wall(&self) -> f64 {
        median(&self.walls)
    }

    /// Median over repetitions of (wall, cpu) time in reference passes,
    /// each repetition divided by the passes timed around it.
    pub fn per_ref(&self) -> (f64, f64) {
        let ratio = |xs: &[f64]| {
            let r: Vec<f64> = xs.iter().zip(&self.refs).map(|(x, p)| x / p).collect();
            median(&r)
        };
        (ratio(&self.walls), ratio(&self.cpus))
    }
}

/// 64-bit FNV-1a over the values a workload's outputs are made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(mut self, b: &[u8]) -> Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds an integer.
    pub fn u64(self, x: u64) -> Self {
        self.bytes(&x.to_le_bytes())
    }

    /// Folds a float by its bit pattern.
    pub fn f64(self, x: f64) -> Self {
        self.u64(x.to_bits())
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn process_clocks_read_and_advance() {
        let t = timed(|| (0..3_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(t.out > 0 && t.wall_s > 0.0 && t.cpu_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn per_ref_is_the_median_of_each_repetitions_ratio() {
        let mut r = Reps::default();
        // The same work on a host at full speed, at half speed, and once
        // slowed more than the reference passes around it.
        for (wall_s, cpu_s, ref_s) in [(1.0, 1.0, 0.5), (2.0, 2.0, 1.0), (5.0, 2.0, 1.0)] {
            r.push(&Timed {
                out: (),
                wall_s,
                cpu_s,
                ref_s,
            });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.walls(), [1.0, 2.0, 5.0]);
        assert_eq!(r.median_wall(), 2.0);
        assert_eq!(r.per_ref(), (2.0, 2.0));
    }

    #[test]
    fn reference_brackets_the_timed_call() {
        let mut reference = Reference::new();
        let t = reference.time(|| 7);
        assert_eq!(t.out, 7);
        assert!(t.ref_s > 0.0 && t.wall_s >= 0.0);
    }

    #[test]
    fn digest_is_order_sensitive_fnv1a() {
        // FNV-1a 64 of "a" is af63dc4c8601ec8c.
        assert_eq!(Digest::default().bytes(b"a").hex(), "af63dc4c8601ec8c");
        let ab = Digest::default().u64(1).u64(2);
        let ba = Digest::default().u64(2).u64(1);
        assert_ne!(ab, ba);
    }
}
