//! Host speed: how fast each CPU runs a fixed calibration kernel,
//! sampled all through a run, so that the time of computing work can be
//! stated at one reference speed.
//!
//! On the shared 2-vCPU virtual machines this benchmark was built on,
//! each vCPU's speed for hash- and sort-heavy code switches between two
//! regimes about 1.45× apart, for seconds to minutes at a time, and
//! independently of the other vCPU (the regimes of the two correlated at
//! 0.1). No steal time shows, and a dependent pointer chase barely
//! slows, so it is not the hypervisor taking the CPU away. The same
//! in-process `MINE` report on adult took 3.7 s in one stretch and 6.5 s
//! in the next, which no number of repetitions within a 20 s run
//! averages out.
//!
//! A sampler thread pinned to each CPU runs a small kernel (hash and
//! sort 4,096 keys, about 0.2 ms) every [`PERIOD`]: once to warm its
//! caches, then [`TIMED_PASSES`] times, keeping the least CPU time of
//! the thread. Warm caches and the least of a few passes make a sample
//! blind to what else runs on the CPU, which evicts the kernel's data
//! or interrupts it, but not to the regime. The speed of a CPU is the
//! reference time of a pass over that CPU time. An interval of wall time
//! converts to reference speed by multiplying it by the mean speed of
//! the samples taken on the CPUs that did the work, during it. Measured
//! on that host with the miner pinned next to a sampler, this cut the
//! run-to-run variation of a `MINE` request from 12–20% to 3–7%.

use sqlnf_obs::json::JsonValue;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// CPU time of one kernel pass at speed 1, in ns: roughly a pass on the
/// faster regime of the host above.
const REFERENCE_NS: f64 = 160_000.0;

/// Pause between two samples on one CPU. A sample takes about 1.5% of
/// it.
const PERIOD: Duration = Duration::from_millis(50);

/// Timed kernel passes per sample, after one to warm the caches.
const TIMED_PASSES: usize = 3;

/// Samples this far outside an interval still count for it, so that an
/// interval shorter than [`PERIOD`] has some. Regimes last seconds.
const PAD: Duration = Duration::from_millis(250);

/// Keys the kernel hashes and sorts per pass.
const KEYS: usize = 4_096;

/// Distinct keys the kernel counts into.
const GROUPS: u64 = 1_536;

mod sys {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    /// Words of a glibc `cpu_set_t` (1,024 CPUs).
    pub const CPU_SET_WORDS: usize = 16;

    extern "C" {
        pub fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }
}

/// CPU time of the calling thread.
fn thread_cpu_time() -> Duration {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; sys::CPU_SET_WORDS];
    // SAFETY: `mask` is writable and as long as the size passed.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return vec![0];
    }
    (0..64 * sys::CPU_SET_WORDS)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins thread `tid` (0: the calling thread) to `cpu`.
fn pin(tid: i32, cpu: usize) -> Result<(), String> {
    let mut mask = [0u64; sys::CPU_SET_WORDS];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("cpu {cpu} is out of range"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is readable and as long as the size passed.
    let rc = unsafe { sys::sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "pin thread {tid} to cpu {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Pins the calling thread, and the threads it starts later, to `cpu`.
pub fn pin_this_thread(cpu: usize) -> Result<(), String> {
    pin(0, cpu)
}

/// Pins every thread of process `pid` to `cpu`; threads it starts later
/// inherit the pinning.
pub fn pin_process(pid: u32, cpu: usize) -> Result<(), String> {
    let dir = format!("/proc/{pid}/task");
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
    for task in tasks.flatten() {
        if let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) {
            pin(tid, cpu)?;
        }
    }
    Ok(())
}

/// The calibration kernel: count keys into a hash map and sort them.
/// Deterministic: a fixed hasher and fixed keys.
struct Kernel {
    keys: Vec<u64>,
    counts: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>,
    sorted: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut rng = crate::data::Rng::new(0, 4);
        Kernel {
            keys: (0..KEYS).map(|_| rng.next()).collect(),
            counts: HashMap::with_capacity_and_hasher(GROUPS as usize, Default::default()),
            sorted: Vec::with_capacity(KEYS),
        }
    }

    /// One pass; returns its CPU time.
    fn pass(&mut self) -> Duration {
        let start = thread_cpu_time();
        self.counts.clear();
        for &k in black_box(&self.keys) {
            *self.counts.entry(k % GROUPS).or_default() += 1;
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        black_box((self.counts.len(), self.sorted[KEYS / 2]));
        thread_cpu_time().saturating_sub(start)
    }
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    at: Instant,
    cpu: usize,
    speed: f64,
}

/// Where the two processes of a run work when a workload pins them.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// CPU of every thread of the server child.
    pub server: usize,
    /// CPU of the benchmark's client threads; the server's on a single
    /// CPU.
    pub client: usize,
}

/// The samplers of one run, one thread per CPU. Dropping it stops and
/// joins them.
#[derive(Debug)]
pub struct Speed {
    cpus: Vec<usize>,
    samples: Arc<Mutex<Vec<Sample>>>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Speed {
    /// Starts a sampler on every CPU this process may run on, and
    /// returns once each has taken its first sample.
    pub fn start() -> Result<Speed, String> {
        let cpus = allowed_cpus();
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let (samples, stop, ready) = (samples.clone(), stop.clone(), ready_tx.clone());
                std::thread::spawn(move || sample(cpu, &samples, &stop, ready))
            })
            .collect();
        let speed = Speed {
            cpus,
            samples,
            stop,
            threads,
        };
        for _ in &speed.cpus {
            ready_rx
                .recv()
                .map_err(|_| "a speed sampler stopped before its first sample".to_owned())??;
        }
        Ok(speed)
    }

    /// The CPUs sampled.
    pub fn cpus(&self) -> &[usize] {
        &self.cpus
    }

    /// The server on the first CPU, the client on the second.
    pub fn placement(&self) -> Placement {
        Placement {
            server: self.cpus[0],
            client: *self.cpus.get(1).unwrap_or(&self.cpus[0]),
        }
    }

    /// Mean speed on `cpus` from `from` to `to`, over the samples taken
    /// then and up to [`PAD`] either side; waits for the samples after
    /// `to` if they are not taken yet.
    pub fn over(&self, cpus: &[usize], from: Instant, to: Instant) -> f64 {
        let (lo, hi) = (from - PAD, to + PAD);
        if let Some(wait) = hi.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait + PERIOD);
        }
        let samples = self.samples.lock().expect("a sampler panicked");
        let on = |s: &&Sample| cpus.contains(&s.cpu);
        let inside: Vec<f64> = samples
            .iter()
            .filter(on)
            .filter(|s| lo <= s.at && s.at <= hi)
            .map(|s| s.speed)
            .collect();
        if !inside.is_empty() {
            return inside.iter().sum::<f64>() / inside.len() as f64;
        }
        // A sampler that could not run for a while: the nearest sample.
        let mid = from + (to - from) / 2;
        samples
            .iter()
            .filter(on)
            .min_by_key(|s| s.at.max(mid) - s.at.min(mid))
            .map_or(1.0, |s| s.speed)
    }

    /// `secs` of wall time from `from`, worked by `cpus`, at reference
    /// speed.
    pub fn scale(&self, cpus: &[usize], from: Instant, secs: f64) -> f64 {
        secs * self.over(cpus, from, from + Duration::from_secs_f64(secs))
    }

    /// Per CPU: sample count and median speed, for the result file.
    pub fn report(&self) -> JsonValue {
        let samples = self.samples.lock().expect("a sampler panicked");
        JsonValue::Object(
            self.cpus
                .iter()
                .map(|&cpu| {
                    let speeds: Vec<f64> = samples
                        .iter()
                        .filter(|s| s.cpu == cpu)
                        .map(|s| s.speed)
                        .collect();
                    let median = crate::stats::Summary::of(&speeds).map_or(0.0, |s| s.median);
                    (
                        format!("cpu{cpu}"),
                        JsonValue::Object(vec![
                            ("samples".into(), JsonValue::Int(speeds.len() as i128)),
                            ("median_speed".into(), JsonValue::Float(median)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

impl Drop for Speed {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            if t.join().is_err() {
                eprintln!("a speed sampler panicked");
            }
        }
    }
}

/// One CPU's sampler loop.
fn sample(
    cpu: usize,
    samples: &Mutex<Vec<Sample>>,
    stop: &AtomicBool,
    ready: std::sync::mpsc::Sender<Result<(), String>>,
) {
    if let Err(e) = pin_this_thread(cpu) {
        let _ = ready.send(Err(e));
        return;
    }
    let mut kernel = Kernel::new();
    let mut first = true;
    while !stop.load(Ordering::SeqCst) {
        kernel.pass();
        let cpu_time = (0..TIMED_PASSES)
            .map(|_| kernel.pass())
            .min()
            .expect("at least one timed pass")
            .max(Duration::from_nanos(1));
        samples.lock().expect("a sampler panicked").push(Sample {
            at: Instant::now(),
            cpu,
            speed: REFERENCE_NS / cpu_time.as_nanos() as f64,
        });
        if std::mem::take(&mut first) {
            let _ = ready.send(Ok(()));
        }
        std::thread::sleep(PERIOD);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_may_run_somewhere() {
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn samplers_report_a_positive_speed() {
        let speed = Speed::start().unwrap();
        let now = Instant::now();
        let s = speed.over(speed.cpus(), now, now);
        assert!(s > 0.0 && s.is_finite());
        assert!(speed.scale(&speed.cpus()[..1], now, 0.1) > 0.0);
    }

    #[test]
    fn the_thread_cpu_clock_advances_with_work() {
        let mut kernel = Kernel::new();
        assert!(kernel.pass() > Duration::ZERO);
    }
}
