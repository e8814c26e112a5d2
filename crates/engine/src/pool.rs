//! A work-stealing thread pool built on the standard library.
//!
//! Each worker owns a deque protected by its own mutex; submissions are
//! distributed round-robin across the worker deques. A worker pops from
//! the **front** of its own deque, and when empty it *steals* from the
//! **back** of a sibling's deque (starting at the neighbour after
//! itself, so contention spreads). A shared condvar parks idle workers.
//!
//! Per-deque mutexes are uncontended in the common case (owner pops,
//! nobody steals), which is all the batch workloads here need; tasks are
//! coarse (whole mapping flows), so queue overhead is immaterial — the
//! stealing matters for *balance*, not throughput: circuit runtimes vary
//! by three orders of magnitude across the Table-1 suite.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// Per-worker deques.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Count of queued-but-unclaimed tasks, guarded with the condvar.
    pending: Mutex<usize>,
    wakeup: Condvar,
    shutdown: AtomicBool,
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool waits for all queued tasks to finish.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next: usize,
}

impl Pool {
    /// Spawns a pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Pool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: Mutex::new(0),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("engine-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker thread")
            })
            .collect();
        Pool {
            shared,
            workers: handles,
            next: 0,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Submits a task; it runs on some worker thread.
    pub fn spawn(&mut self, task: impl FnOnce() + Send + 'static) {
        let slot = self.next % self.shared.queues.len();
        self.next = self.next.wrapping_add(1);
        // Counted before it is queued: a worker that claims the task
        // must find it counted, or `pending` would drop below zero.
        // A worker that wakes in between finds no task yet and looks
        // again.
        let mut pending = self.shared.pending.lock().expect("pending poisoned");
        *pending += 1;
        drop(pending);
        self.shared.queues[slot]
            .lock()
            .expect("queue poisoned")
            .push_back(Box::new(task));
        self.shared.wakeup.notify_one();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wakeup.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    let n = shared.queues.len();
    loop {
        // Own deque first (front), then steal from siblings (back).
        let mut task = shared.queues[me]
            .lock()
            .expect("queue poisoned")
            .pop_front();
        if task.is_none() {
            for off in 1..n {
                let victim = (me + off) % n;
                task = shared.queues[victim]
                    .lock()
                    .expect("queue poisoned")
                    .pop_back();
                if task.is_some() {
                    break;
                }
            }
        }
        match task {
            Some(task) => {
                let mut pending = shared.pending.lock().expect("pending poisoned");
                *pending -= 1;
                drop(pending);
                task();
            }
            None => {
                let mut pending = shared.pending.lock().expect("pending poisoned");
                loop {
                    if *pending > 0 {
                        break;
                    }
                    if shared.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    pending = shared.wakeup.wait(pending).expect("pending poisoned");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn runs_all_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let mut pool = Pool::new(4);
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                pool.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop waits for completion
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn single_worker_is_fifo_for_own_queue() {
        let (tx, rx) = mpsc::channel();
        {
            let mut pool = Pool::new(1);
            for i in 0..10 {
                let tx = tx.clone();
                pool.spawn(move || tx.send(i).unwrap());
            }
        }
        let got: Vec<i32> = rx.try_iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn workers_clamped_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn stealing_balances_a_blocked_worker() {
        // Two workers; the first task parks worker A on a channel until
        // every other task (queued round-robin to BOTH deques) is done —
        // possible only if worker B steals A's share.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let done = Arc::new(AtomicUsize::new(0));
        {
            let mut pool = Pool::new(2);
            pool.spawn(move || {
                release_rx.recv().unwrap();
            });
            for _ in 0..20 {
                let d = Arc::clone(&done);
                pool.spawn(move || {
                    d.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Busy-wait (bounded) for the stealing worker to drain all 20.
            let t0 = std::time::Instant::now();
            while done.load(Ordering::Relaxed) < 20 {
                assert!(
                    t0.elapsed() < std::time::Duration::from_secs(10),
                    "stealing failed: {} of 20 done",
                    done.load(Ordering::Relaxed)
                );
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
        }
        assert_eq!(done.load(Ordering::Relaxed), 20);
    }
}
