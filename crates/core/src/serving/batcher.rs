//! Dynamic batching policy.
//!
//! The policy types every serving entry point shares: the admission
//! queue's capacity and the standard max-batch / max-delay trigger pair:
//!
//! - **size**: the instant a queue reaches `max_batch` waiters, a full
//!   batch dispatches;
//! - **delay**: a partial batch dispatches when its oldest waiter has
//!   been queued for `max_delay_ms` — the latency bound a size trigger
//!   alone cannot give under light load.
//!
//! One planner applies them: [`crate::cluster::plan_cluster_batches`]
//! maps an arrival trace to a deterministic sequence of
//! [`DispatchedBatch`]es plus shed counts. Plain and dynamic serving run
//! it with a single tenant, which owns the whole queue.

use super::arrivals::Request;
use crate::{CoreError, Result};

/// When to close a forming batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPolicy {
    /// Dispatch as soon as this many requests are waiting.
    pub max_batch: usize,
    /// Dispatch a partial batch once its oldest request has waited this
    /// long, milliseconds.
    pub max_delay_ms: f64,
}

/// How much backpressure the admission queue applies.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuePolicy {
    /// Maximum number of requests waiting to be batched; arrivals beyond
    /// this are shed.
    pub capacity: usize,
}

/// One batch the planner committed: the requests it coalesced and the
/// instant it left the queue for the device.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchedBatch {
    /// Dispatch instant on the serving clock, milliseconds.
    pub dispatch_ms: f64,
    /// The coalesced requests, in admission order.
    pub requests: Vec<Request>,
}

/// Rejects a zero `max_batch`, a negative or non-finite `max_delay_ms`
/// and a zero queue capacity.
pub(crate) fn validate_policies(queue: &QueuePolicy, policy: &BatchPolicy) -> Result<()> {
    if policy.max_batch == 0 {
        return Err(CoreError::Serving {
            reason: "max_batch must be at least 1".into(),
        });
    }
    if !(policy.max_delay_ms.is_finite() && policy.max_delay_ms >= 0.0) {
        return Err(CoreError::Serving {
            reason: format!(
                "max_delay_ms must be non-negative and finite, got {}",
                policy.max_delay_ms
            ),
        });
    }
    if queue.capacity == 0 {
        return Err(CoreError::Serving {
            reason: "queue capacity must be at least 1".into(),
        });
    }
    Ok(())
}

/// Rejects a trace with a non-finite arrival instant or one out of
/// order. Finiteness is checked first because NaN compares false both
/// ways and would pass the ordering check.
pub(crate) fn validate_trace(arrivals: &[Request]) -> Result<()> {
    if let Some(r) = arrivals.iter().find(|r| !r.arrival_ms.is_finite()) {
        return Err(CoreError::Serving {
            reason: format!("request {} arrives at non-finite {} ms", r.id, r.arrival_ms),
        });
    }
    for pair in arrivals.windows(2) {
        let (a, b) = (pair[0].arrival_ms, pair[1].arrival_ms);
        if a > b {
            return Err(CoreError::Serving {
                reason: format!("arrival trace is not sorted: {b} ms after {a} ms"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{plan_cluster_batches, TenantSpec};
    use std::collections::VecDeque;

    fn req(id: usize, arrival_ms: f64) -> Request {
        Request {
            id,
            arrival_ms,
            component: 0,
        }
    }

    fn queue(capacity: usize) -> QueuePolicy {
        QueuePolicy { capacity }
    }

    fn policy(max_batch: usize, max_delay_ms: f64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            max_delay_ms,
        }
    }

    /// A single-tenant plan: the batches in dispatch order and the shed
    /// count.
    #[derive(Debug, PartialEq)]
    struct Plan {
        batches: Vec<DispatchedBatch>,
        shed: u64,
    }

    /// The one planner with one tenant of `weight` that every request
    /// belongs to, as plain serving runs it.
    fn plan_weighted(
        arrivals: &[Request],
        queue: &QueuePolicy,
        policy: &BatchPolicy,
        weight: u32,
    ) -> Result<Plan> {
        let tenant = TenantSpec {
            name: "all".into(),
            weight,
            deadline_ms: None,
        };
        let plan =
            plan_cluster_batches(arrivals, &vec![0; arrivals.len()], &[tenant], queue, policy)?;
        Ok(Plan {
            batches: plan.batches.into_iter().map(|cb| cb.batch).collect(),
            shed: plan.shed_per_tenant[0],
        })
    }

    fn plan_one_tenant(
        arrivals: &[Request],
        queue: &QueuePolicy,
        policy: &BatchPolicy,
    ) -> Result<Plan> {
        plan_weighted(arrivals, queue, policy, 1)
    }

    #[test]
    fn size_trigger_dispatches_at_the_filling_arrival() {
        let arrivals: Vec<Request> = (0..6).map(|i| req(i, i as f64)).collect();
        let plan = plan_one_tenant(&arrivals, &queue(16), &policy(3, 100.0)).expect("valid");
        assert_eq!(plan.shed, 0);
        assert_eq!(plan.batches.len(), 2);
        // Batch closes the instant its third member arrives.
        assert_eq!(plan.batches[0].dispatch_ms, 2.0);
        assert_eq!(plan.batches[1].dispatch_ms, 5.0);
        let ids: Vec<usize> = plan.batches[0].requests.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn delay_trigger_flushes_partial_batches() {
        // Two early requests, then a long gap: the delay timer must fire.
        let arrivals = vec![req(0, 0.0), req(1, 1.0), req(2, 50.0)];
        let plan = plan_one_tenant(&arrivals, &queue(16), &policy(4, 5.0)).expect("valid");
        assert_eq!(plan.batches.len(), 2);
        assert_eq!(plan.batches[0].dispatch_ms, 5.0);
        assert_eq!(plan.batches[0].requests.len(), 2);
        // The straggler flushes at its own deadline after the trace ends.
        assert_eq!(plan.batches[1].dispatch_ms, 55.0);
        assert_eq!(plan.batches[1].requests.len(), 1);
    }

    #[test]
    fn overload_sheds_beyond_queue_capacity() {
        // Everything arrives at once; capacity 4 admits four, sheds six.
        let arrivals: Vec<Request> = (0..10).map(|i| req(i, 0.0)).collect();
        let plan = plan_one_tenant(&arrivals, &queue(4), &policy(8, 10.0)).expect("valid");
        assert_eq!(plan.shed, 6);
        let served: usize = plan.batches.iter().map(|b| b.requests.len()).sum();
        assert_eq!(served, 4);
    }

    #[test]
    fn draining_between_bursts_readmits() {
        // Burst fills capacity, delay drains it, second burst is admitted.
        let mut arrivals: Vec<Request> = (0..4).map(|i| req(i, 0.0)).collect();
        arrivals.extend((4..8).map(|i| req(i, 20.0)));
        let plan = plan_one_tenant(&arrivals, &queue(4), &policy(8, 5.0)).expect("valid");
        assert_eq!(plan.shed, 0);
        let served: usize = plan.batches.iter().map(|b| b.requests.len()).sum();
        assert_eq!(served, 8);
    }

    #[test]
    fn dispatch_times_never_decrease() {
        let arrivals: Vec<Request> = (0..50).map(|i| req(i, (i as f64 * 1.7) % 40.0)).collect();
        let mut sorted = arrivals;
        sorted.sort_by(|a, b| a.arrival_ms.partial_cmp(&b.arrival_ms).unwrap());
        let plan = plan_one_tenant(&sorted, &queue(8), &policy(3, 4.0)).expect("valid");
        for pair in plan.batches.windows(2) {
            assert!(pair[0].dispatch_ms <= pair[1].dispatch_ms);
        }
    }

    #[test]
    fn zero_delay_flushes_every_request_alone() {
        // max_delay_ms == 0: a waiter's deadline is its own arrival
        // instant, so each request flushes before the next can join it —
        // even when arrivals share a timestamp.
        let arrivals = vec![req(0, 0.0), req(1, 0.0), req(2, 2.5)];
        let plan = plan_one_tenant(&arrivals, &queue(16), &policy(8, 0.0)).expect("valid");
        assert_eq!(plan.shed, 0);
        assert_eq!(plan.batches.len(), 3, "one batch per request");
        for (batch, request) in plan.batches.iter().zip(&arrivals) {
            assert_eq!(batch.requests.len(), 1);
            assert_eq!(batch.requests[0].id, request.id);
            assert_eq!(batch.dispatch_ms, request.arrival_ms);
        }
    }

    #[test]
    fn capacity_below_max_batch_caps_batches_at_capacity() {
        // The queue can never hold max_batch waiters, so the size trigger
        // is unreachable: batches top out at capacity and the overflow is
        // shed, not silently wedged.
        let arrivals: Vec<Request> = (0..10).map(|i| req(i, 0.0)).collect();
        let plan = plan_one_tenant(&arrivals, &queue(3), &policy(8, 4.0)).expect("valid");
        assert_eq!(plan.shed, 7);
        assert_eq!(plan.batches.len(), 1);
        assert_eq!(plan.batches[0].requests.len(), 3);
        assert_eq!(plan.batches[0].dispatch_ms, 4.0, "delay trigger flushes");
    }

    /// The FIFO the single-stream planner admitted into: it sheds at
    /// capacity and counts what it shed.
    struct BoundedQueue {
        items: VecDeque<Request>,
        capacity: usize,
        shed: u64,
    }

    impl BoundedQueue {
        fn new(capacity: usize) -> Self {
            Self {
                items: VecDeque::with_capacity(capacity),
                capacity,
                shed: 0,
            }
        }

        fn offer(&mut self, item: Request) -> bool {
            if self.items.len() >= self.capacity {
                self.shed += 1;
                false
            } else {
                self.items.push_back(item);
                true
            }
        }

        fn pop(&mut self) -> Option<Request> {
            self.items.pop_front()
        }

        fn front(&self) -> Option<&Request> {
            self.items.front()
        }

        fn len(&self) -> usize {
            self.items.len()
        }

        fn is_empty(&self) -> bool {
            self.items.is_empty()
        }

        fn shed_count(&self) -> u64 {
            self.shed
        }
    }

    /// Drains up to `max_batch` requests into a batch dispatched at `at_ms`.
    fn dispatch(
        at_ms: f64,
        queue: &mut BoundedQueue,
        max_batch: usize,
        out: &mut Vec<DispatchedBatch>,
    ) {
        let take = queue.len().min(max_batch);
        let mut requests = Vec::with_capacity(take);
        for _ in 0..take {
            requests.push(queue.pop().expect("len checked"));
        }
        out.push(DispatchedBatch {
            dispatch_ms: at_ms,
            requests,
        });
    }

    /// The single-stream planner the tenant planner replaced, kept
    /// verbatim as an oracle for the one-tenant plan.
    fn oracle_plan_batches(
        arrivals: &[Request],
        queue_policy: &QueuePolicy,
        policy: &BatchPolicy,
    ) -> Result<Plan> {
        validate_policies(queue_policy, policy)?;
        validate_trace(arrivals)?;

        let mut queue = BoundedQueue::new(queue_policy.capacity);
        let mut batches = Vec::new();
        for request in arrivals {
            // Fire every delay deadline that elapses before this arrival.
            while let Some(front) = queue.front() {
                let deadline = front.arrival_ms + policy.max_delay_ms;
                if deadline <= request.arrival_ms {
                    dispatch(deadline, &mut queue, policy.max_batch, &mut batches);
                } else {
                    break;
                }
            }
            if queue.offer(request.clone()) && queue.len() >= policy.max_batch {
                dispatch(
                    request.arrival_ms,
                    &mut queue,
                    policy.max_batch,
                    &mut batches,
                );
            }
        }
        // End of trace: the server does not know the trace ended, so each
        // leftover batch still waits out its oldest member's delay deadline.
        while !queue.is_empty() {
            let deadline = queue.front().expect("non-empty").arrival_ms + policy.max_delay_ms;
            dispatch(deadline, &mut queue, policy.max_batch, &mut batches);
        }

        Ok(Plan {
            batches,
            shed: queue.shed_count(),
        })
    }

    /// A sorted trace from deci-millisecond instants: the vendored
    /// proptest only samples integer ranges.
    fn trace_from_deci(mut instants: Vec<u64>) -> Vec<Request> {
        instants.sort_unstable();
        instants
            .iter()
            .enumerate()
            .map(|(id, &deci)| req(id, deci as f64 / 10.0))
            .collect()
    }

    mod plan_proptest {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// For any trace and policy, dispatch instants are monotone
            /// and every admitted request lands in exactly one batch.
            #[test]
            fn dispatches_are_monotone_and_partition_admissions(
                arrival_deci in proptest::collection::vec(0u64..400, 0..40),
                max_batch in 1u64..6,
                capacity in 1u64..10,
                delay_deci in 0u64..80,
            ) {
                let arrivals = trace_from_deci(arrival_deci);
                let plan = plan_one_tenant(
                    &arrivals,
                    &queue(capacity as usize),
                    &policy(max_batch as usize, delay_deci as f64 / 10.0),
                ).expect("valid policy");

                let mut last = f64::NEG_INFINITY;
                let mut seen = std::collections::HashSet::new();
                for batch in &plan.batches {
                    prop_assert!(!batch.requests.is_empty(), "empty batch");
                    prop_assert!(batch.requests.len() <= max_batch as usize);
                    prop_assert!(
                        batch.dispatch_ms >= last,
                        "dispatch went backwards: {} after {}",
                        batch.dispatch_ms,
                        last
                    );
                    last = batch.dispatch_ms;
                    for r in &batch.requests {
                        prop_assert!(
                            seen.insert(r.id),
                            "request {} dispatched twice",
                            r.id
                        );
                        prop_assert!(batch.dispatch_ms >= r.arrival_ms);
                    }
                }
                prop_assert_eq!(
                    seen.len() as u64 + plan.shed,
                    arrivals.len() as u64,
                    "admitted + shed must cover the trace"
                );
            }

            /// A lone tenant owns the whole queue at any weight, so the
            /// tenant planner makes exactly the single-stream plan: every
            /// batch (instant and requests) and the shed count.
            #[test]
            fn one_tenant_plan_equals_the_single_stream_oracle(
                arrival_deci in proptest::collection::vec(0u64..400, 0..48),
                max_batch in 1u64..9,
                capacity in 1u64..13,
                delay_deci in 0u64..81,
                weight in 1u64..6,
            ) {
                let arrivals = trace_from_deci(arrival_deci);
                let queue = queue(capacity as usize);
                let policy = policy(max_batch as usize, delay_deci as f64 / 10.0);
                let oracle = oracle_plan_batches(&arrivals, &queue, &policy).expect("valid");
                let plan = plan_weighted(&arrivals, &queue, &policy, weight as u32)
                    .expect("valid");
                prop_assert_eq!(plan.batches.len(), oracle.batches.len());
                for (i, (got, want)) in plan.batches.iter().zip(&oracle.batches).enumerate() {
                    prop_assert_eq!(got, want, "batch {}", i);
                }
                prop_assert_eq!(plan.shed, oracle.shed);
            }
        }
    }

    #[test]
    fn invalid_policies_are_rejected() {
        assert!(plan_one_tenant(&[], &queue(4), &policy(0, 1.0)).is_err());
        assert!(plan_one_tenant(&[], &queue(0), &policy(4, 1.0)).is_err());
        assert!(plan_one_tenant(&[], &queue(4), &policy(4, -1.0)).is_err());
        assert!(plan_one_tenant(&[], &queue(4), &policy(4, f64::NAN)).is_err());
        let unsorted = vec![req(0, 5.0), req(1, 1.0)];
        assert!(plan_one_tenant(&unsorted, &queue(4), &policy(4, 1.0)).is_err());
    }
}
