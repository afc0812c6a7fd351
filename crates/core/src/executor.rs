//! The study's work-stealing task executor.
//!
//! Extracted from `Study::run` so the width sweep
//! ([`crate::scale`]) can fan its per-width session tasks through the same
//! pool. Tasks are pulled heaviest-first off a shared cursor by a pool
//! sized to the host, so total wall time is bounded by the single heaviest
//! task instead of by thread oversubscription; results are returned in
//! *task order* regardless of completion order, so parallel runs stay
//! bit-identical to serial ones (asserted by the study determinism suite).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run every task, heaviest first, on a pool sized to the host; returns
/// outputs in task order. `weight` is only a wall-time estimate — it
/// steers scheduling, never results. With `parallel` false (or a single
/// task) the tasks run serially in order on the calling thread.
pub fn run_longest_first<T, O, W, R>(tasks: &[T], weight: W, run: R, parallel: bool) -> Vec<O>
where
    T: Sync,
    O: Send,
    W: Fn(&T) -> f64,
    R: Fn(&T) -> O + Sync,
{
    if !parallel || tasks.len() <= 1 {
        return tasks.iter().map(run).collect();
    }
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| {
        weight(&tasks[b])
            .total_cmp(&weight(&tasks[a]))
            .then(a.cmp(&b))
    });
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<O>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(tasks.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&idx) = order.get(k) else { break };
                let out = run(&tasks[idx]);
                *slots[idx].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every queued task ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn outputs_come_back_in_task_order() {
        let tasks: Vec<u64> = (0..37).collect();
        let out = run_longest_first(&tasks, |&t| t as f64, |&t| t * 2, true);
        assert_eq!(out, (0..37).map(|t| t * 2).collect::<Vec<_>>());
        let serial = run_longest_first(&tasks, |&t| t as f64, |&t| t * 2, false);
        assert_eq!(out, serial);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicU64::new(0);
        let tasks: Vec<usize> = (0..23).collect();
        let out = run_longest_first(
            &tasks,
            |_| 1.0,
            |&t| {
                ran.fetch_add(1, Ordering::Relaxed);
                t
            },
            true,
        );
        assert_eq!(ran.load(Ordering::Relaxed), 23);
        assert_eq!(out, tasks);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let out = run_longest_first(&Vec::<u8>::new(), |_| 0.0, |&t| t, true);
        assert!(out.is_empty());
    }
}
