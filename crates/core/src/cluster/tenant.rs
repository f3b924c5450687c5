//! Tenant traffic classes and weighted-fair admission.
//!
//! A shared cluster serves several *tenants* — independent traffic
//! classes with their own latency deadlines and a weight that says how
//! much of the shared admission queue each one is entitled to under
//! contention. [`plan_cluster_batches`] is the workspace's one
//! admission-and-batching planner: plain serving ([`crate::serving`])
//! and dynamic serving ([`crate::dynamic`]) run it with a single tenant,
//! which owns the whole queue, and the cluster runs it with the roster.
//!
//! - the admission queue's capacity is shared, but each tenant owns a
//!   *guaranteed share* proportional to its weight (never below one
//!   slot);
//! - a tenant may borrow idle capacity beyond its share, but when the
//!   queue is full an arrival from an *under-share* tenant evicts the
//!   newest waiter of the most over-share tenant — so a heavy tenant's
//!   burst cannot starve a light tenant's trickle;
//! - batches are tenant-pure (one tenant per batch — tenants may want
//!   different models, priorities, or billing) and close under the shared
//!   max-batch / max-delay triggers ([`BatchPolicy`]).
//!
//! With one tenant no eviction can happen (a lone tenant is never over
//! its share), so the planner is a bounded FIFO that sheds at capacity.
//!
//! Everything is pure policy: trace in, per-tenant dispatch schedule and
//! shed counts out. Ties break on the lowest tenant index, so the plan is
//! deterministic for any input.

use crate::serving::batcher::{validate_policies, validate_trace};
use crate::serving::ledger::Class;
use crate::serving::{BatchPolicy, DispatchedBatch, QueuePolicy, Request};
use crate::{splitmix64, CoreError, Result};

use std::collections::VecDeque;

/// One traffic class sharing the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name (report rows, CLI specs); must be non-empty.
    pub name: String,
    /// Relative share of the admission queue under contention; must be at
    /// least 1.
    pub weight: u32,
    /// Per-request latency SLO: a request completing later than this
    /// after arrival counts as `deadline_missed`. `None` disables the
    /// check for this tenant.
    pub deadline_ms: Option<f64>,
}

/// Validates a tenant roster: at least one tenant, non-empty names,
/// positive weights, sane deadlines.
pub fn validate_tenants(tenants: &[TenantSpec]) -> Result<()> {
    if tenants.is_empty() {
        return Err(CoreError::Serving {
            reason: "the cluster needs at least one tenant".into(),
        });
    }
    for (i, t) in tenants.iter().enumerate() {
        if t.name.is_empty() {
            return Err(CoreError::Serving {
                reason: format!("tenant {i} has an empty name"),
            });
        }
        if t.weight == 0 {
            return Err(CoreError::Serving {
                reason: format!("tenant {} weight must be at least 1", t.name),
            });
        }
        if let Some(d) = t.deadline_ms {
            if !(d.is_finite() && d > 0.0) {
                return Err(CoreError::Serving {
                    reason: format!(
                        "tenant {} deadline_ms must be positive and finite, got {d}",
                        t.name
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Assigns each request a tenant, drawn per-request in proportion to the
/// tenant weights — a pure function of `(request id, seed)`, so the
/// assignment replays bit-for-bit and is independent of trace slicing.
pub fn assign_tenants(
    arrivals: &[Request],
    tenants: &[TenantSpec],
    seed: u64,
) -> Result<Vec<usize>> {
    validate_tenants(tenants)?;
    let total: u64 = tenants.iter().map(|t| u64::from(t.weight)).sum();
    Ok(arrivals
        .iter()
        .map(|r| {
            let mut pick = splitmix64(seed ^ splitmix64(r.id as u64)) % total;
            for (i, t) in tenants.iter().enumerate() {
                let w = u64::from(t.weight);
                if pick < w {
                    return i;
                }
                pick -= w;
            }
            tenants.len() - 1
        })
        .collect())
}

/// One tenant-pure batch the cluster planner committed.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterBatch {
    /// Index into the tenant roster.
    pub tenant: usize,
    /// Total requests waiting across all tenants just before this batch
    /// drained — the autoscaler's queue-depth signal.
    pub depth_at_dispatch: usize,
    /// The coalesced requests and their dispatch instant.
    pub batch: DispatchedBatch,
}

/// The cluster planner's full output for one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPlan {
    /// Every dispatched batch, in dispatch order.
    pub batches: Vec<ClusterBatch>,
    /// Requests rejected (or evicted) at admission, per tenant.
    pub shed_per_tenant: Vec<u64>,
}

impl ClusterPlan {
    /// The latency ledger's classes, one per tenant in roster order: the
    /// tenant's deadline, the requests `tenant_of` assigns it and how many
    /// of them admission shed.
    pub(crate) fn classes(&self, tenants: &[TenantSpec], tenant_of: &[usize]) -> Vec<Class> {
        let mut arrivals = vec![0usize; tenants.len()];
        for &t in tenant_of {
            arrivals[t] += 1;
        }
        tenants
            .iter()
            .zip(arrivals)
            .zip(&self.shed_per_tenant)
            .map(|((spec, arrivals), &shed)| Class {
                deadline_ms: spec.deadline_ms,
                arrivals,
                shed,
            })
            .collect()
    }
}

/// Weighted-fair admission state over one shared capacity.
struct Admission {
    queues: Vec<VecDeque<Request>>,
    shares: Vec<usize>,
    shed: Vec<u64>,
    capacity: usize,
    waiting: usize,
}

impl Admission {
    fn new(tenants: &[TenantSpec], capacity: usize) -> Self {
        let total: u64 = tenants.iter().map(|t| u64::from(t.weight)).sum();
        // Guaranteed share: proportional floor, never below one slot.
        let shares = tenants
            .iter()
            .map(|t| (((capacity as u64) * u64::from(t.weight)) / total).max(1) as usize)
            .collect();
        Self {
            queues: tenants.iter().map(|_| VecDeque::new()).collect(),
            shares,
            shed: vec![0; tenants.len()],
            capacity,
            waiting: 0,
        }
    }

    /// Offers one arrival of tenant `t`: admit into slack, or reclaim a
    /// guaranteed slot by evicting the newest waiter of the most
    /// over-share tenant, or shed. Returns whether the request waits.
    fn offer(&mut self, t: usize, request: Request) -> bool {
        if self.waiting < self.capacity {
            self.queues[t].push_back(request);
            self.waiting += 1;
            return true;
        }
        if self.queues[t].len() < self.shares[t] {
            // The queue is full of borrowers while `t` is under its
            // guarantee: evict the newest request of the tenant furthest
            // over its own share (ties: lowest index). Some over-share
            // tenant must exist — the shares sum to at most the capacity.
            let victim = (0..self.queues.len())
                .filter(|&v| self.queues[v].len() > self.shares[v])
                .max_by_key(|&v| self.queues[v].len() - self.shares[v]);
            if let Some(v) = victim {
                self.queues[v].pop_back();
                self.shed[v] += 1;
                self.queues[t].push_back(request);
                return true;
            }
        }
        self.shed[t] += 1;
        false
    }

    /// The tenant whose oldest waiter has the earliest delay deadline
    /// (ties: lowest index), if anyone is waiting.
    fn earliest_deadline(&self, max_delay_ms: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (t, q) in self.queues.iter().enumerate() {
            if let Some(front) = q.front() {
                let deadline = front.arrival_ms + max_delay_ms;
                if best.is_none_or(|(_, d)| deadline < d) {
                    best = Some((t, deadline));
                }
            }
        }
        best
    }

    /// Drains up to `max_batch` of tenant `t`'s waiters into a batch
    /// dispatched at `at_ms`.
    fn dispatch(&mut self, t: usize, at_ms: f64, max_batch: usize, out: &mut Vec<ClusterBatch>) {
        let depth_at_dispatch = self.waiting;
        let take = self.queues[t].len().min(max_batch);
        let mut requests = Vec::with_capacity(take);
        for _ in 0..take {
            requests.push(self.queues[t].pop_front().expect("len checked"));
            self.waiting -= 1;
        }
        out.push(ClusterBatch {
            tenant: t,
            depth_at_dispatch,
            batch: DispatchedBatch {
                dispatch_ms: at_ms,
                requests,
            },
        });
    }
}

/// Replays `arrivals` (sorted, with `tenant_of[i]` naming request `i`'s
/// tenant) through weighted-fair admission and per-tenant batching.
pub fn plan_cluster_batches(
    arrivals: &[Request],
    tenant_of: &[usize],
    tenants: &[TenantSpec],
    queue: &QueuePolicy,
    policy: &BatchPolicy,
) -> Result<ClusterPlan> {
    validate_policies(queue, policy)?;
    validate_trace(arrivals)?;
    validate_tenants(tenants)?;
    if tenant_of.len() != arrivals.len() {
        return Err(CoreError::Serving {
            reason: format!(
                "tenant assignment covers {} requests but the trace has {}",
                tenant_of.len(),
                arrivals.len()
            ),
        });
    }
    if let Some(&bad) = tenant_of.iter().find(|&&t| t >= tenants.len()) {
        return Err(CoreError::Serving {
            reason: format!(
                "tenant index {bad} out of range ({} tenants)",
                tenants.len()
            ),
        });
    }
    if queue.capacity < tenants.len() {
        return Err(CoreError::Serving {
            reason: format!(
                "queue capacity {} cannot guarantee one slot to each of {} tenants",
                queue.capacity,
                tenants.len()
            ),
        });
    }
    let mut adm = Admission::new(tenants, queue.capacity);
    let mut batches = Vec::new();
    for (request, &t) in arrivals.iter().zip(tenant_of) {
        // Fire every delay deadline that elapses before this arrival, in
        // deadline order (ties: lowest tenant index).
        while let Some((tenant, deadline)) = adm.earliest_deadline(policy.max_delay_ms) {
            if deadline <= request.arrival_ms {
                adm.dispatch(tenant, deadline, policy.max_batch, &mut batches);
            } else {
                break;
            }
        }
        if adm.offer(t, request.clone()) && adm.queues[t].len() >= policy.max_batch {
            adm.dispatch(t, request.arrival_ms, policy.max_batch, &mut batches);
        }
    }
    // End of trace: leftovers still wait out their delay deadlines.
    while let Some((tenant, deadline)) = adm.earliest_deadline(policy.max_delay_ms) {
        adm.dispatch(tenant, deadline, policy.max_batch, &mut batches);
    }

    Ok(ClusterPlan {
        batches,
        shed_per_tenant: adm.shed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: usize, arrival_ms: f64) -> Request {
        Request {
            id,
            arrival_ms,
            component: 0,
        }
    }

    fn tenants2() -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                name: "heavy".into(),
                weight: 3,
                deadline_ms: None,
            },
            TenantSpec {
                name: "light".into(),
                weight: 1,
                deadline_ms: Some(5.0),
            },
        ]
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

    #[test]
    fn invalid_rosters_and_assignments_are_rejected() {
        assert!(validate_tenants(&[]).is_err());
        let mut bad = tenants2();
        bad[0].weight = 0;
        assert!(validate_tenants(&bad).is_err());
        let mut bad = tenants2();
        bad[1].name.clear();
        assert!(validate_tenants(&bad).is_err());
        let mut bad = tenants2();
        bad[1].deadline_ms = Some(f64::NAN);
        assert!(validate_tenants(&bad).is_err());

        let arrivals = vec![req(0, 0.0)];
        // Assignment length mismatch and out-of-range tenants.
        assert!(
            plan_cluster_batches(&arrivals, &[], &tenants2(), &queue(4), &policy(2, 1.0)).is_err()
        );
        assert!(
            plan_cluster_batches(&arrivals, &[7], &tenants2(), &queue(4), &policy(2, 1.0)).is_err()
        );
        // Capacity below the tenant count cannot guarantee shares.
        assert!(
            plan_cluster_batches(&arrivals, &[0], &tenants2(), &queue(1), &policy(2, 1.0)).is_err()
        );
    }

    #[test]
    fn weighted_assignment_tracks_weights_and_replays() {
        let arrivals: Vec<Request> = (0..4000).map(|i| req(i, i as f64 * 0.1)).collect();
        let a = assign_tenants(&arrivals, &tenants2(), 11).expect("valid");
        let b = assign_tenants(&arrivals, &tenants2(), 11).expect("valid");
        assert_eq!(a, b, "assignment must replay");
        let heavy = a.iter().filter(|&&t| t == 0).count() as f64;
        let share = heavy / 4000.0;
        assert!(
            (share - 0.75).abs() < 0.03,
            "weight 3:1 must split ~75/25, got {share}"
        );
        assert_ne!(
            a,
            assign_tenants(&arrivals, &tenants2(), 12).expect("valid"),
            "seed must matter"
        );
    }

    #[test]
    fn batches_are_tenant_pure_and_partition_admissions() {
        let arrivals: Vec<Request> = (0..40).map(|i| req(i, i as f64 * 0.3)).collect();
        let tenant_of = assign_tenants(&arrivals, &tenants2(), 5).expect("valid");
        let plan = plan_cluster_batches(
            &arrivals,
            &tenant_of,
            &tenants2(),
            &queue(16),
            &policy(4, 2.0),
        )
        .expect("valid");
        let mut seen = std::collections::HashSet::new();
        let mut last = f64::NEG_INFINITY;
        for cb in &plan.batches {
            assert!(!cb.batch.requests.is_empty());
            assert!(cb.batch.dispatch_ms >= last, "dispatch order");
            last = cb.batch.dispatch_ms;
            for r in &cb.batch.requests {
                assert!(seen.insert(r.id), "request dispatched twice");
                assert_eq!(tenant_of[r.id], cb.tenant, "batches must be tenant-pure");
                assert!(cb.batch.dispatch_ms >= r.arrival_ms);
            }
        }
        let shed: u64 = plan.shed_per_tenant.iter().sum();
        assert_eq!(seen.len() as u64 + shed, 40, "admitted + shed covers trace");
    }

    #[test]
    fn full_queue_evicts_the_over_share_tenant_not_the_light_one() {
        // Tenant 0 (weight 3) floods 12 simultaneous arrivals into a
        // capacity-8 queue (its share: 6 slots, light tenant's share: 2).
        // The flood fills all 8; the light tenant's two arrivals must
        // then reclaim their guaranteed slots by evicting the flood's
        // newest waiters instead of being shed.
        let mut arrivals: Vec<Request> = (0..12).map(|i| req(i, 0.0)).collect();
        arrivals.push(req(12, 0.1));
        arrivals.push(req(13, 0.2));
        let mut tenant_of = vec![0usize; 12];
        tenant_of.extend([1, 1]);
        let plan = plan_cluster_batches(
            &arrivals,
            &tenant_of,
            &tenants2(),
            &queue(8),
            &policy(16, 10.0),
        )
        .expect("valid");
        let light_served: usize = plan
            .batches
            .iter()
            .filter(|cb| cb.tenant == 1)
            .map(|cb| cb.batch.requests.len())
            .sum();
        assert_eq!(light_served, 2, "the light tenant must not be starved");
        assert_eq!(plan.shed_per_tenant[1], 0);
        // The flood paid: 4 shed at the full queue plus 2 evictions.
        assert_eq!(plan.shed_per_tenant[0], 6);
        let heavy_served: usize = plan
            .batches
            .iter()
            .filter(|cb| cb.tenant == 0)
            .map(|cb| cb.batch.requests.len())
            .sum();
        assert_eq!(heavy_served, 6);
    }

    #[test]
    fn per_tenant_delay_deadlines_fire_in_order() {
        // One early request per tenant, then silence: each flushes at its
        // own deadline, earliest first.
        let arrivals = vec![req(0, 0.0), req(1, 1.0)];
        let tenant_of = vec![1, 0];
        let plan = plan_cluster_batches(
            &arrivals,
            &tenant_of,
            &tenants2(),
            &queue(8),
            &policy(4, 3.0),
        )
        .expect("valid");
        assert_eq!(plan.batches.len(), 2);
        assert_eq!(plan.batches[0].tenant, 1);
        assert_eq!(plan.batches[0].batch.dispatch_ms, 3.0);
        assert_eq!(plan.batches[1].tenant, 0);
        assert_eq!(plan.batches[1].batch.dispatch_ms, 4.0);
    }

    #[test]
    fn depth_signal_counts_all_waiting_tenants() {
        // Both tenants have waiters when the first batch drains; the
        // recorded depth must include the other tenant's queue.
        let arrivals = vec![req(0, 0.0), req(1, 0.0), req(2, 0.0), req(3, 0.0)];
        let tenant_of = vec![0, 0, 0, 1];
        let plan = plan_cluster_batches(
            &arrivals,
            &tenant_of,
            &tenants2(),
            &queue(8),
            &policy(3, 5.0),
        )
        .expect("valid");
        assert_eq!(plan.batches[0].tenant, 0, "size trigger fires first");
        assert_eq!(plan.batches[0].depth_at_dispatch, 3);
    }
}
