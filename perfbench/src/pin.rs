//! Running a timed loop on one CPU at a time.
//!
//! A served request crosses three threads (client, accept, worker).
//! Left to the scheduler, each hand-off may wake a halted CPU; under a
//! hypervisor that wake is an inter-processor interrupt whose delay
//! depends on how busy the host is, not on the service. With every
//! thread of the process on one CPU, each hand-off is a local context
//! switch. The CPUs of a shared host do not run at the same speed, so
//! the serve loop moves all its threads to the next CPU every round,
//! and the single-threaded `run-8w3-mflush` loop every few hundred
//! milliseconds: each window then averages over every CPU.

/// Affinity-mask words (room for 1024 CPUs).
const WORDS: usize = 16;

type Mask = [u64; WORDS];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Set the mask of thread `tid` (0: the calling thread).
#[cfg(target_os = "linux")]
fn set(tid: i32, mask: &Mask) -> bool {
    // SAFETY: the kernel only reads the `size_of_val(mask)` bytes of
    // the mask, which lives across the call.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// Set the mask of every thread of the process.
#[cfg(target_os = "linux")]
fn set_all(mask: &Mask) -> bool {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let mut ok = true;
    for tid in tasks
        .flatten()
        .filter_map(|t| t.file_name().to_str()?.parse().ok())
    {
        ok &= set(tid, mask);
    }
    ok
}

/// The CPUs the process may use, and their mask as it was; put back
/// on every thread on drop.
pub struct Cpus {
    saved: Mask,
    cpus: Vec<usize>,
}

impl Cpus {
    /// The calling thread's CPUs. `None` where affinity cannot be
    /// read; the loop then runs unpinned.
    #[cfg(target_os = "linux")]
    pub fn current() -> Option<Cpus> {
        let mut saved = [0u64; WORDS];
        // SAFETY: pid 0 is the calling thread; the buffer is
        // `size_of_val(&saved)` bytes long and lives across the call.
        let got =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&saved), saved.as_mut_ptr()) };
        let cpus: Vec<usize> = (0..WORDS * 64)
            .filter(|&c| saved[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        (got == 0 && !cpus.is_empty()).then_some(Cpus { saved, cpus })
    }

    #[cfg(not(target_os = "linux"))]
    pub fn current() -> Option<Cpus> {
        None
    }

    /// How many CPUs the loop turns over.
    pub fn count(&self) -> usize {
        self.cpus.len()
    }

    /// Move every thread of the process (and every thread spawned from
    /// now on) to the `turn`-th CPU, cyclically.
    pub fn pin_all(&self, turn: usize) {
        let cpu = self.cpus[turn % self.cpus.len()];
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        #[cfg(target_os = "linux")]
        set_all(&one);
    }

    /// Give every thread of the process its CPUs back.
    pub fn unpin_all(&self) {
        #[cfg(target_os = "linux")]
        set_all(&self.saved);
    }
}

impl Drop for Cpus {
    fn drop(&mut self) {
        self.unpin_all();
    }
}
