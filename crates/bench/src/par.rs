//! A scoped parallel map for the reproduction harness: Table 4's cells and
//! the experiments of `reproduce all` are independent, so they run on
//! every CPU and their results come back in input order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `items.iter().map(f).collect()`, computed on up to
/// `available_parallelism()` threads. Each item is mapped on one thread,
/// so the results equal the sequential map's whatever the thread count.
/// A panic in `f` resumes on the caller.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    map_on(cpus.min(items.len()), items, f)
}

/// [`par_map`] on exactly `threads` threads (one or none runs inline).
/// Workers take the next unmapped index from a shared cursor. The cursor
/// only hands out indices, so `Relaxed` suffices: each worker's results
/// reach the caller through `join`, which synchronizes.
fn map_on<T: Sync, R: Send>(threads: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break done };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for handle in workers {
            let done = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every index is taken once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_equals_the_sequential_map_in_order() {
        let items: Vec<u64> = (0..37).collect();
        let f = |&x: &u64| (x * x) ^ (x << 7);
        let want: Vec<u64> = items.iter().map(f).collect();
        for threads in [1, 2, 3] {
            assert_eq!(map_on(threads, &items, f), want, "{threads} threads");
        }
        assert_eq!(par_map(&items, f), want);
        assert!(map_on(3, &[] as &[u64], f).is_empty());
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            map_on(2, &[1, 2, 3], |&x: &i32| if x == 2 { panic!("item two") } else { x })
        });
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item two"));
    }
}
