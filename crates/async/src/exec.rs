//! A minimal multi-threaded executor — the same vendored-shim discipline
//! as `vendor/`: just enough of the tokio/async-std surface
//! ([`Executor::spawn`], [`JoinHandle`], [`block_on`]) for the async
//! dispatch frontend, built purely on `std::task` and thread parking.
//!
//! The design is the classic one (futures-rs `ArcWake`, smol's
//! single-queue core): a task is an `Arc` holding the boxed future and a
//! re-enqueue flag; its [`Waker`] (via `std::task::Wake`, so no unsafe
//! vtables) pushes the task back onto one shared injector queue; worker
//! threads take their share of it under one lock and poll. One global
//! queue is deliberate — the workload this executor exists for (100k+
//! logical clients awaiting ring completions) is wake-dominated and the
//! tasks are tiny, so work stealing would be complexity without a
//! measurable win at the bench's scale. Tasks must not block their
//! worker: a task waiting on one taken in the same share never runs it.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::task::{Context, Poll, Wake, Waker};

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// The shared run queue: an injector deque plus a condvar so idle
/// workers sleep instead of spinning. Uses `std::sync` directly (the
/// vendored parking_lot shim carries no `Condvar`); poison is shrugged
/// off the same way the shim does it.
struct Queue {
    injector: StdMutex<Injector>,
    available: Condvar,
}

/// Everything a worker reads before it decides to sleep, under one lock.
#[derive(Default)]
struct Injector {
    tasks: VecDeque<Arc<Task>>,
    /// Workers inside `Condvar::wait`. A push notifies only when this is
    /// non-zero: a worker that is not waiting re-checks `tasks` under the
    /// lock before it waits, and a futex `notify_one` is a syscall even
    /// when nobody sleeps.
    sleeping: usize,
    /// Set by [`Executor`]'s drop; workers exit once `tasks` is empty.
    shutdown: bool,
}

impl Queue {
    fn injector(&self) -> std::sync::MutexGuard<'_, Injector> {
        self.injector.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, task: Arc<Task>) {
        let mut injector = self.injector();
        injector.tasks.push_back(task);
        let notify = injector.sleeping > 0;
        drop(injector);
        if notify {
            self.available.notify_one();
        }
    }
}

/// One spawned future plus its scheduling state.
struct Task {
    /// `None` once the future has completed (or is momentarily taken out
    /// for polling).
    future: Mutex<Option<BoxFuture>>,
    /// True while the task sits in the injector — a waker firing N times
    /// between polls enqueues once, not N times.
    queued: AtomicBool,
    queue: Arc<Queue>,
}

impl Task {
    fn schedule(self: &Arc<Task>) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            self.queue.push(Arc::clone(self));
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.schedule();
    }
}

/// Shared completion state behind a [`JoinHandle`].
struct JoinState<T> {
    result: Mutex<(Option<T>, Option<Waker>)>,
    done: AtomicBool,
}

/// Await (or block on) a spawned task's result.
pub struct JoinHandle<T> {
    state: Arc<JoinState<T>>,
}

impl<T: Send + 'static> JoinHandle<T> {
    /// Block the current thread until the task completes.
    pub fn join(self) -> T {
        block_on(self)
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut guard = self.state.result.lock();
        if self.state.done.load(Ordering::Acquire) {
            if let Some(value) = guard.0.take() {
                return Poll::Ready(value);
            }
            panic!("JoinHandle polled after completion");
        }
        guard.1 = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// A fixed pool of worker threads polling spawned futures.
pub struct Executor {
    queue: Arc<Queue>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl Executor {
    /// Spawn `threads` workers (min 1).
    pub fn new(threads: usize) -> Executor {
        let queue = Arc::new(Queue {
            injector: StdMutex::new(Injector::default()),
            available: Condvar::new(),
        });
        let threads = threads.max(1);
        let workers = (0..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("smod-async{i}"))
                    .spawn(move || worker_loop(&queue, threads))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { queue, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Spawn a future onto the pool.
    pub fn spawn<T, F>(&self, future: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        let state = Arc::new(JoinState {
            result: Mutex::new((None, None)),
            done: AtomicBool::new(false),
        });
        let task_state = Arc::clone(&state);
        let wrapped = async move {
            let value = future.await;
            let waker = {
                let mut guard = task_state.result.lock();
                guard.0 = Some(value);
                task_state.done.store(true, Ordering::Release);
                guard.1.take()
            };
            if let Some(waker) = waker {
                waker.wake();
            }
        };
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(wrapped))),
            queued: AtomicBool::new(false),
            queue: Arc::clone(&self.queue),
        });
        task.schedule();
        JoinHandle { state }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Under the injector lock: a worker reads `shutdown` and starts
        // its wait inside one critical section, so the flag and the
        // notify cannot both land between the two.
        self.queue.injector().shutdown = true;
        self.queue.available.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("executor worker panicked");
        }
    }
}

fn worker_loop(queue: &Arc<Queue>, threads: usize) {
    // Tasks taken from the injector in one lock: this worker's share of
    // whatever is queued, so a burst of wakes costs one lock round trip
    // here rather than one per task.
    let mut batch: VecDeque<Arc<Task>> = VecDeque::new();
    loop {
        if batch.is_empty() {
            let mut injector = queue.injector();
            loop {
                let share = injector.tasks.len().div_ceil(threads);
                if share > 0 {
                    batch.extend(injector.tasks.drain(..share));
                    break;
                }
                if injector.shutdown {
                    return;
                }
                injector.sleeping += 1;
                injector = queue
                    .available
                    .wait(injector)
                    .unwrap_or_else(|e| e.into_inner());
                injector.sleeping -= 1;
            }
        }
        let task = batch.pop_front().expect("refilled above");
        // Clear `queued` *before* polling: a wake that lands mid-poll
        // re-enqueues the task, guaranteeing at least one more poll sees
        // whatever the waker announced.
        task.queued.store(false, Ordering::Release);
        let waker = Waker::from(Arc::clone(&task));
        let mut cx = Context::from_waker(&waker);
        let mut slot = task.future.lock();
        if let Some(future) = slot.as_mut() {
            if future.as_mut().poll(&mut cx).is_ready() {
                *slot = None; // completed: drop the future, ignore re-wakes
            }
        }
    }
}

/// The thread-parker waker behind [`block_on`].
struct ThreadNotify {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl Wake for ThreadNotify {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// Poll `future` to completion on the calling thread, parking between
/// polls (the thread-parker waker every executor textbook opens with).
pub fn block_on<T, F: Future<Output = T>>(future: F) -> T {
    let notify = Arc::new(ThreadNotify {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&notify));
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        if let Poll::Ready(value) = future.as_mut().poll(&mut cx) {
            return value;
        }
        while !notify.notified.swap(false, Ordering::AcqRel) {
            std::thread::park();
        }
    }
}

/// Await every future in the batch, yielding outputs in input order —
/// the tiny corner of `futures::future::join_all` the dispatch frontends
/// need. O(pending) re-polls per wake, which is fine at dispatch batch
/// sizes; the 100k-client bench runs one spawned task per client instead.
pub struct JoinAll<F: Future + Unpin> {
    futures: Vec<Option<F>>,
    outputs: Vec<Option<F::Output>>,
}

/// Combine a batch of futures into one that resolves when all do.
pub fn join_all<F: Future + Unpin>(futures: impl IntoIterator<Item = F>) -> JoinAll<F> {
    let futures: Vec<Option<F>> = futures.into_iter().map(Some).collect();
    let outputs = futures.iter().map(|_| None).collect();
    JoinAll { futures, outputs }
}

// No self-references regardless of what Output is: Vec storage is heap
// storage, and the only pinning requirement we pass through is F's own.
impl<F: Future + Unpin> Unpin for JoinAll<F> {}

impl<F: Future + Unpin> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<F::Output>> {
        let this = self.get_mut();
        let mut all_done = true;
        for i in 0..this.futures.len() {
            if let Some(future) = this.futures[i].as_mut() {
                match Pin::new(future).poll(cx) {
                    Poll::Ready(value) => {
                        this.outputs[i] = Some(value);
                        this.futures[i] = None;
                    }
                    Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            Poll::Ready(
                this.outputs
                    .iter_mut()
                    .map(|slot| slot.take().expect("every output filled"))
                    .collect(),
            )
        } else {
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A future that is Pending until an external flag flips, re-waking
    /// itself through the stored waker.
    struct FlagFuture {
        flag: Arc<AtomicBool>,
        waker_out: Arc<Mutex<Option<Waker>>>,
    }

    impl Future for FlagFuture {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.flag.load(Ordering::Acquire) {
                Poll::Ready(())
            } else {
                *self.waker_out.lock() = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    #[test]
    fn block_on_runs_a_future_to_completion() {
        assert_eq!(block_on(async { 21 * 2 }), 42);
    }

    #[test]
    fn spawned_tasks_complete_and_join() {
        let exec = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..64u64)
            .map(|i| {
                let counter = Arc::clone(&counter);
                exec.spawn(async move {
                    counter.fetch_add(1, Ordering::AcqRel);
                    i * 2
                })
            })
            .collect();
        let sum: u64 = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, (0..64u64).map(|i| i * 2).sum());
        assert_eq!(counter.load(Ordering::Acquire), 64);
    }

    #[test]
    fn a_woken_task_is_polled_again() {
        let exec = Executor::new(1);
        let flag = Arc::new(AtomicBool::new(false));
        let waker_out = Arc::new(Mutex::new(None));
        let handle = exec.spawn(FlagFuture {
            flag: Arc::clone(&flag),
            waker_out: Arc::clone(&waker_out),
        });
        // Wait for the first poll to park the waker.
        while waker_out.lock().is_none() {
            std::thread::yield_now();
        }
        flag.store(true, Ordering::Release);
        waker_out.lock().take().unwrap().wake();
        handle.join();
    }

    #[test]
    fn dropping_an_executor_never_strands_its_worker() {
        // A worker that has just found the queue empty and `shutdown`
        // clear is about to wait; `drop` must not slip its store and its
        // notify into that gap. The loop runs on a thread of its own and
        // the watchdog checks it keeps moving, so a stranded worker (whose
        // join never returns) fails the test instead of hanging it.
        const CYCLES: usize = 200_000;
        let cycle = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = std::sync::mpsc::channel();
        let cycler = {
            let cycle = Arc::clone(&cycle);
            std::thread::spawn(move || {
                for i in 0..CYCLES {
                    cycle.store(i, Ordering::Relaxed);
                    drop(Executor::new(1));
                }
                let _ = tx.send(());
            })
        };
        let mut last = usize::MAX;
        while let Err(err) = rx.recv_timeout(std::time::Duration::from_secs(5)) {
            let now = cycle.load(Ordering::Relaxed);
            assert!(
                err == std::sync::mpsc::RecvTimeoutError::Timeout && now != last,
                "cycle {now}: dropping the executor stranded its idle worker"
            );
            last = now;
        }
        cycler.join().expect("the create/drop loop finished");
    }

    #[test]
    fn a_sleeping_worker_is_notified_for_every_wake() {
        // One worker, and a task that parks its waker on every poll. An
        // outside thread wakes it only once the worker is inside its
        // wait, so each wake goes through the `sleeping`-gated notify. A
        // lost notify is a poll that never comes: the deadline fails the
        // test instead of hanging it.
        const WAKES: usize = 100_000;
        struct Parker {
            polls: AtomicUsize,
            waker: Mutex<Option<Waker>>,
        }
        struct Parked(Arc<Parker>);
        impl Future for Parked {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                *self.0.waker.lock() = Some(cx.waker().clone());
                if self.0.polls.fetch_add(1, Ordering::AcqRel) == WAKES {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }
        }

        let exec = Executor::new(1);
        let parker = Arc::new(Parker {
            polls: AtomicUsize::new(0),
            waker: Mutex::new(None),
        });
        let handle = exec.spawn(Parked(Arc::clone(&parker)));
        let await_until = |what: &str, done: &dyn Fn() -> bool| {
            let start = std::time::Instant::now();
            while !done() {
                assert!(
                    start.elapsed() < std::time::Duration::from_secs(10),
                    "{what}"
                );
                std::thread::yield_now();
            }
        };
        for wake in 1..=WAKES {
            await_until(&format!("wake {wake} was lost"), &|| {
                parker.polls.load(Ordering::Acquire) == wake && exec.queue.injector().sleeping == 1
            });
            parker
                .waker
                .lock()
                .take()
                .expect("parked by the poll")
                .wake();
        }
        await_until("the last wake was lost", &|| {
            parker.polls.load(Ordering::Acquire) == WAKES + 1
        });
        handle.join();
    }

    #[test]
    fn many_more_tasks_than_threads() {
        let exec = Executor::new(2);
        let handles: Vec<_> = (0..10_000u64)
            .map(|i| exec.spawn(async move { i }))
            .collect();
        let sum: u64 = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, 10_000 * 9_999 / 2);
    }
}
