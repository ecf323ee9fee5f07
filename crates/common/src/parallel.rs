//! Deterministic data-parallel helpers built on `std::thread::scope`.
//!
//! The build environment cannot vendor rayon, so the workspace carries this
//! minimal substitute. The design constraint is **bit-identical results at
//! any thread count**: work is only ever split into disjoint index ranges
//! whose per-element computations are pure, so the partitioning cannot
//! influence any floating-point operation order. Reductions are performed
//! by the caller over the output buffer in index order, never across
//! threads.
//!
//! Thread count resolution, in priority order: the `SSPC_NUM_THREADS`
//! environment variable, then `RAYON_NUM_THREADS` (honored for familiarity
//! — scripts tuned for the rayon convention keep working), then
//! [`std::thread::available_parallelism`]. A value of `1` (or any parse
//! failure) runs inline with zero spawn overhead.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, OnceLock};

/// Resolved worker-thread count for data-parallel sections.
pub fn num_threads() -> usize {
    for var in ["SSPC_NUM_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
    }
    // The probe reads the affinity mask and the cgroup CPU quota from
    // /proc and /sys (about 15 µs on a 2-core VM), and every parallel
    // section asks for the count, so it is taken once per process.
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Minimum number of elements per spawned thread; below this the spawn
/// overhead dwarfs the work and everything runs inline.
pub const MIN_CHUNK: usize = 256;

/// Applies `f` to disjoint consecutive chunks of `out`, possibly in
/// parallel, with a per-worker scratch value. `f` receives the chunk's
/// starting index in `out`, the mutable chunk itself, and the scratch;
/// `init` runs once per worker — the pattern for per-worker buffers (the
/// assignment phase's gain stripes, a cluster fit's gather buffer) that
/// must not be shared across threads. Pass `|| ()` when no scratch is
/// needed. The calling thread works the first chunk itself, so a split
/// into `t` chunks spawns `t − 1` threads.
///
/// The chunking is **not observable** in the result as long as `f` writes
/// `chunk[i]` purely from `(offset + i)` and shared read-only state — which
/// is the only sanctioned usage. Runs inline when a single thread is
/// resolved or the input is smaller than [`MIN_CHUNK`].
pub fn for_each_chunk_mut_with<T, S, I, F>(out: &mut [T], init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    let threads = num_threads().min(out.len().div_ceil(MIN_CHUNK)).max(1);
    if threads == 1 {
        let mut scratch = init();
        f(0, out, &mut scratch);
        return;
    }
    let chunk_len = out.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let mut chunks = out.chunks_mut(chunk_len).enumerate();
        // The calling thread works the first chunk itself, so a section
        // spawns one thread fewer than it has workers.
        let (_, first) = chunks.next().expect("out is non-empty here");
        for (idx, chunk) in chunks {
            let f = &f;
            let init = &init;
            scope.spawn(move || {
                let mut scratch = init();
                f(idx * chunk_len, chunk, &mut scratch);
            });
        }
        let mut scratch = init();
        f(0, first, &mut scratch);
    });
}

/// Why a [`TaskQueue::try_push`] was refused; the rejected task is handed
/// back so the producer can report or retry it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — backpressure; retry later.
    Full(T),
    /// The queue was closed; no further tasks will ever be accepted.
    Closed(T),
}

/// Guarded queue state: the buffer plus the closed flag, updated together.
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer task queue for long-lived
/// worker pools (Mutex + Condvar; no dependencies).
///
/// This is the *control-plane* counterpart to the data-parallel helpers
/// above: [`for_each_chunk_mut_with`] splits one computation across
/// threads, while `TaskQueue` feeds a pool of persistent workers a stream
/// of independent tasks — the batch server's job queue. Pushing never blocks:
/// at capacity, [`TaskQueue::try_push`] refuses with [`PushError::Full`]
/// so the producer can surface backpressure instead of buffering without
/// bound. Popping blocks until a task or queue shutdown arrives.
pub struct TaskQueue<T> {
    state: Mutex<QueueState<T>>,
    task_ready: Condvar,
    capacity: usize,
}

impl<T> TaskQueue<T> {
    /// A queue refusing pushes beyond `capacity` pending tasks
    /// (capacity 0 refuses every push — useful for drills that need a
    /// deterministically full queue).
    pub fn bounded(capacity: usize) -> Self {
        TaskQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            task_ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues a task and returns the queue depth including it, or hands
    /// the task back when the queue is full or closed.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`TaskQueue::close`].
    pub fn try_push(&self, task: T) -> std::result::Result<usize, PushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(PushError::Closed(task));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(task));
        }
        state.items.push_back(task);
        let depth = state.items.len();
        drop(state);
        self.task_ready.notify_one();
        Ok(depth)
    }

    /// Blocks until a task is available and returns it, or `None` once the
    /// queue is closed **and** drained — the worker-loop exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(task) = state.items.pop_front() {
                return Some(task);
            }
            if state.closed {
                return None;
            }
            state = self.task_ready.wait(state).expect("queue poisoned");
        }
    }

    /// Closes the queue: pending tasks still drain, further pushes fail,
    /// and blocked/future [`TaskQueue::pop`] calls return `None` once the
    /// buffer empties.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.task_ready.notify_all();
    }

    /// Number of tasks currently waiting (excludes tasks already popped by
    /// a worker).
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// True when no tasks are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of pending tasks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes env mutation across the tests in this module.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_threads<R>(n: &str, body: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("SSPC_NUM_THREADS", n);
        let r = body();
        std::env::remove_var("SSPC_NUM_THREADS");
        r
    }

    #[test]
    fn chunked_fill_is_identical_across_thread_counts() {
        let compute = || {
            let mut out = vec![0.0f64; 10_000];
            for_each_chunk_mut_with(
                &mut out,
                || (),
                |offset, chunk, ()| {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        let idx = (offset + i) as f64;
                        *slot = (idx * 0.37).sin() + idx.sqrt();
                    }
                },
            );
            out
        };
        let serial = with_threads("1", compute);
        for n in ["2", "3", "8"] {
            let parallel = with_threads(n, compute);
            assert_eq!(serial, parallel, "thread count {n} changed the result");
        }
    }

    #[test]
    fn num_threads_honors_env_priority() {
        with_threads("3", || {
            assert_eq!(num_threads(), 3);
        });
        // RAYON_NUM_THREADS is honored when SSPC_NUM_THREADS is absent.
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::remove_var("SSPC_NUM_THREADS");
        std::env::set_var("RAYON_NUM_THREADS", "2");
        assert_eq!(num_threads(), 2);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert!(num_threads() >= 1);
    }

    #[test]
    fn task_queue_delivers_every_task_exactly_once() {
        let queue = std::sync::Arc::new(TaskQueue::bounded(64));
        let total = 50usize;
        let done = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let queue = std::sync::Arc::clone(&queue);
                let done = std::sync::Arc::clone(&done);
                std::thread::spawn(move || {
                    while let Some(task) = queue.pop() {
                        done.lock().unwrap().push(task);
                    }
                })
            })
            .collect();
        for i in 0..total {
            queue.try_push(i).unwrap();
        }
        queue.close();
        for w in workers {
            w.join().unwrap();
        }
        let mut seen = done.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
        assert!(queue.is_empty());
    }

    #[test]
    fn task_queue_enforces_capacity_and_close() {
        let queue = TaskQueue::bounded(2);
        assert_eq!(queue.capacity(), 2);
        assert_eq!(queue.try_push(1).unwrap(), 1);
        assert_eq!(queue.try_push(2).unwrap(), 2);
        assert!(matches!(queue.try_push(3), Err(PushError::Full(3))));
        assert_eq!(queue.len(), 2);

        queue.close();
        assert!(matches!(queue.try_push(4), Err(PushError::Closed(4))));
        // Pending tasks drain after close, then pop signals shutdown.
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), None);

        let zero = TaskQueue::bounded(0);
        assert!(matches!(zero.try_push(9), Err(PushError::Full(9))));
    }

    #[test]
    fn small_inputs_run_inline() {
        let mut out = vec![0u8; 16];
        for_each_chunk_mut_with(
            &mut out,
            || (),
            |offset, chunk, ()| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = (offset + i) as u8;
                }
            },
        );
        assert_eq!(out[15], 15);
    }
}
