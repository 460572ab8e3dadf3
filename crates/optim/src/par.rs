//! The one fan-out primitive of the workspace: independent jobs over an
//! index range, results in index order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `job` over `0..n` on up to `threads` scoped worker threads and
/// returns every result in index order — the pool under the engine's
/// branch fan-out, its batch phases and [`grid_scan_2d_rows`]'s γ rows.
///
/// `threads` is clamped to `n`. With at most one worker left, `job`
/// runs over `0..n` in order on the caller's thread and nothing is
/// spawned. Otherwise workers claim indices from one atomic counter, so
/// a slow item never serializes its successors, and each keeps its
/// `(index, value)` pairs in a `Vec` of its own; after the join the
/// caller scatters them by index. The output therefore depends only on
/// `job`, never on the thread count or the schedule. This crate has no
/// ambient thread policy: callers pass the width in.
///
/// # Panics
///
/// A panicking `job` unwinds into the caller with its own payload, once
/// every worker has stopped.
///
/// # Example
///
/// ```
/// use fq_optim::par_collect;
///
/// let squares = par_collect(4, 10, |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
///
/// [`grid_scan_2d_rows`]: crate::grid_scan_2d_rows
pub fn par_collect<T: Send>(threads: usize, n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let claimed: Vec<std::thread::Result<Vec<(usize, T)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, job(i)));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for worker in claimed {
        let pairs = worker.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        for (i, value) in pairs {
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("the counter hands every index below n to one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// For every `n` in `0..=64` at 1, 2, 3 and `n + 3` threads, on a
    /// seeded job with uneven per-item work: the pool returns exactly
    /// `(0..n).map(job)`, and collecting a fallible job into a `Result`
    /// yields the first error by index.
    #[test]
    fn par_collect_equals_the_sequential_map_on_generated_jobs() {
        for n in 0..=64usize {
            let mut rng = StdRng::seed_from_u64(0x9A2C_0000 ^ n as u64);
            let values: Vec<u64> = (0..n).map(|_| rng.random()).collect();
            let spins: Vec<u32> = (0..n).map(|_| rng.random_range(0..2_000u32)).collect();
            let fails: Vec<bool> = (0..n).map(|_| rng.random_range(0..4u32) == 0).collect();
            let job = |i: usize| {
                let mut x = values[i];
                for _ in 0..spins[i] {
                    x = std::hint::black_box(x.rotate_left(7) ^ 0x9E37_79B9_7F4A_7C15);
                }
                x
            };
            let fallible = |i: usize| if fails[i] { Err(i) } else { Ok(job(i)) };
            let expected: Vec<u64> = (0..n).map(job).collect();
            let expected_result: Result<Vec<u64>, usize> = (0..n).map(fallible).collect();
            for threads in [1, 2, 3, n + 3] {
                let label = format!("n = {n}, {threads} threads");
                assert_eq!(par_collect(threads, n, job), expected, "{label}");
                let result: Result<Vec<u64>, usize> =
                    par_collect(threads, n, fallible).into_iter().collect();
                assert_eq!(result, expected_result, "{label}");
            }
        }
    }

    #[test]
    fn a_panicking_item_unwinds_into_the_caller() {
        for threads in [1, 2, 3, 11] {
            let caught = std::panic::catch_unwind(|| {
                par_collect(threads, 8, |i| {
                    assert!(i != 5, "item {i} failed");
                    i
                })
            });
            let payload = caught.expect_err("the panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("item 5 failed"),
                "{threads} threads"
            );
        }
    }
}
