//! One CPU for the whole process.
//!
//! This sandbox is a KVM guest whose idle vCPUs halt, and waking a
//! halted vCPU from another one costs about 25 µs — against 2 µs for a
//! wake-up on the same CPU. A closed loop over a socket is a ping-pong
//! (two wake-ups per request unit), and where the scheduler happens to
//! put client and server decides everything: on one CPU a depth-1
//! request takes 7 µs, on two it takes 50 µs, with identical code. Left
//! alone the placement is bistable — wake-affinity usually pulls the
//! pair together, a preceding CPU burst (a build) pushes it apart for
//! minutes — so the same binary read 17k or 120k requests per second.
//! Pinning the process to one CPU before any thread starts makes the
//! cheap placement the only one. The client and the server of a closed
//! loop with one connection alternate rather than overlap, so nothing
//! that could run in parallel is serialised by this.

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread — and every thread it spawns from now
/// on — to the lowest CPU it is allowed on. Returns that CPU, or `None`
/// when the kernel refuses (the run then goes ahead unpinned).
pub fn to_one_cpu() -> Option<usize> {
    // Room for 1024 CPUs, the kernel's default CONFIG_NR_CPUS ceiling.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls access exactly `size` bytes of `mask`, which
    // lives across them; pid 0 is the calling thread.
    unsafe {
        if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
            return None;
        }
        let word = mask.iter().position(|&w| w != 0)?;
        let bit = mask[word].trailing_zeros() as usize;
        mask = [0u64; 16];
        mask[word] = 1 << bit;
        (sched_setaffinity(0, size, mask.as_ptr()) == 0).then_some(word * 64 + bit)
    }
}
