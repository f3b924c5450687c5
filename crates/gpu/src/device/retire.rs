//! Block retirement on the simulated clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One group of blocks finishing together: `blocks` blocks of `launch`
/// leave SM `sm` at instant `at`, returning their resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retirement {
    /// Retirement instant, cycles.
    pub at: u64,
    /// The launch the blocks belong to (caller-assigned id).
    pub launch: usize,
    /// The SM the blocks leave.
    pub sm: usize,
    /// How many blocks retire together.
    pub blocks: u64,
}

/// Min-heap of pending retirements ordered by instant; equal instants pop
/// in push order (a sequence number breaks ties), so draining is fully
/// deterministic.
#[derive(Debug, Default)]
pub struct RetirementQueue {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    entries: Vec<Retirement>,
}

impl RetirementQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a retirement.
    pub fn push(&mut self, r: Retirement) {
        let seq = self.entries.len() as u64;
        self.entries.push(r);
        self.heap.push(Reverse((r.at, seq)));
    }

    /// The earliest pending retirement instant, if any.
    pub fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }

    /// Pops every retirement due at or before `now`, in (instant, push)
    /// order.
    pub fn pop_due(&mut self, now: u64) -> Vec<Retirement> {
        std::iter::from_fn(|| self.pop_next_due(now)).collect()
    }

    /// Pops the first retirement [`RetirementQueue::pop_due`] would
    /// return, so the scheduler drains an instant without allocating.
    pub(crate) fn pop_next_due(&mut self, now: u64) -> Option<Retirement> {
        let &Reverse((at, seq)) = self.heap.peek()?;
        if at > now {
            return None;
        }
        self.heap.pop();
        Some(self.entries[seq as usize])
    }

    /// Whether no retirements are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(at: u64, launch: usize) -> Retirement {
        Retirement {
            at,
            launch,
            sm: 0,
            blocks: 1,
        }
    }

    #[test]
    fn drains_in_time_then_push_order() {
        let mut q = RetirementQueue::new();
        q.push(r(50, 0));
        q.push(r(10, 1));
        q.push(r(50, 2));
        q.push(r(10, 3));
        assert_eq!(q.next_at(), Some(10));
        let due = q.pop_due(10);
        assert_eq!(
            due.iter().map(|x| x.launch).collect::<Vec<_>>(),
            vec![1, 3],
            "equal instants pop in push order"
        );
        assert_eq!(q.next_at(), Some(50));
        assert!(q.pop_due(49).is_empty());
        let due = q.pop_due(u64::MAX);
        assert_eq!(due.iter().map(|x| x.launch).collect::<Vec<_>>(), vec![0, 2]);
        assert!(q.is_empty());
    }
}
