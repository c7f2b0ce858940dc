//! Weighted fair queueing for the dispatcher: per-tenant queues drained by
//! **weighted deficit round-robin** (WDRR).
//!
//! Each backlogged tenant holds a FIFO of queued items. A *round* visits
//! every tenant that was backlogged when the round formed, granting each a
//! deficit of `weight` credits (every item costs one credit — queries are
//! admitted one at a time, so unit cost is exact, and unused credit is
//! discarded when a queue drains, the standard DRR reset). Within a round,
//! tenants are visited in ascending backlog order: the lightly-loaded
//! tenant is served *first*, so a tenant flooding the queue can delay
//! others by at most its per-round share — never starve them. With equal
//! weights and `k` backlogged tenants every tenant gets `1/k` of worker
//! throughput regardless of arrival rates; weights shift that share
//! proportionally ([`ServiceConfig::tenant_weights`]).
//!
//! The scheduler is deliberately a plain data structure (no threads, no
//! clocks) so fairness is unit-testable: feed arrivals, pop departures,
//! assert the order.
//!
//! [`ServiceConfig::tenant_weights`]: crate::ServiceConfig::tenant_weights

use std::collections::{BTreeMap, VecDeque};

/// A per-tenant weighted-deficit-round-robin queue of `T`.
#[derive(Debug)]
pub struct WfqScheduler<T> {
    weights: BTreeMap<String, u64>,
    queues: BTreeMap<String, VecDeque<T>>,
    /// The current round: `(tenant, remaining credit)` in service order.
    round: VecDeque<(String, u64)>,
    len: usize,
}

impl<T> WfqScheduler<T> {
    /// Creates a scheduler with explicit per-tenant weights; tenants absent
    /// from the map weigh `1`. Zero weights are clamped to `1` (a zero
    /// weight would starve the tenant, which is exactly what WFQ exists to
    /// prevent).
    #[must_use]
    pub fn new(weights: BTreeMap<String, u64>) -> Self {
        WfqScheduler {
            weights,
            queues: BTreeMap::new(),
            round: VecDeque::new(),
            len: 0,
        }
    }

    /// The effective weight of `tenant`.
    #[must_use]
    fn weight(&self, tenant: &str) -> u64 {
        self.weights.get(tenant).copied().unwrap_or(1).max(1)
    }

    /// Total queued items across all tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued items of one tenant.
    #[must_use]
    pub fn depth(&self, tenant: &str) -> usize {
        self.queues.get(tenant).map_or(0, VecDeque::len)
    }

    /// Appends an item to `tenant`'s queue.
    pub fn enqueue(&mut self, tenant: &str, item: T) {
        self.queues
            .entry(tenant.to_string())
            .or_default()
            .push_back(item);
        self.len += 1;
    }

    /// Starts a new round over the currently backlogged tenants, shortest
    /// queue first (ties broken by name for determinism), each with a fresh
    /// deficit of `weight` credits.
    fn form_round(&mut self) {
        let mut tenants: Vec<(&String, usize)> = self
            .queues
            .iter()
            .filter(|(_, queue)| !queue.is_empty())
            .map(|(tenant, queue)| (tenant, queue.len()))
            .collect();
        tenants.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
        self.round = tenants
            .into_iter()
            .map(|(tenant, _)| (tenant.clone(), self.weight(tenant)))
            .collect();
    }

    /// Removes and returns the next item in WDRR order, with its tenant.
    pub fn pop(&mut self) -> Option<(String, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let Some((tenant, credit)) = self.round.pop_front() else {
                self.form_round();
                continue;
            };
            let Some(queue) = self.queues.get_mut(&tenant) else {
                continue;
            };
            let Some(item) = queue.pop_front() else {
                // Queue drained mid-round (or emptied by drain_matching):
                // the unused deficit is discarded, per standard DRR, and the
                // empty per-tenant entry is pruned so one-shot tenants leave
                // no residue behind.
                self.queues.remove(&tenant);
                continue;
            };
            self.len -= 1;
            let drained = queue.is_empty();
            if credit > 1 && !drained {
                self.round.push_front((tenant.clone(), credit - 1));
            }
            if drained {
                self.queues.remove(&tenant);
            }
            return Some((tenant, item));
        }
    }

    /// Removes every queued item matching `pred`, across all tenants, in
    /// per-tenant FIFO order, up to `limit` items — the coalescing hook: the
    /// dispatcher pops one item, then drains its identical siblings so one
    /// execution answers them all. Round credits are untouched; a tenant's
    /// coalesced items simply no longer occupy its queue.
    pub(crate) fn drain_matching<F>(&mut self, limit: usize, mut pred: F) -> Vec<(String, T)>
    where
        F: FnMut(&T) -> bool,
    {
        let mut drained = Vec::new();
        for (tenant, queue) in &mut self.queues {
            let mut kept = VecDeque::with_capacity(queue.len());
            while let Some(item) = queue.pop_front() {
                if drained.len() < limit && pred(&item) {
                    drained.push((tenant.clone(), item));
                } else {
                    kept.push_back(item);
                }
            }
            *queue = kept;
        }
        // Entries fully emptied by the drain are pruned (round credits are
        // untouched; `pop` skips and prunes stale round entries).
        self.queues.retain(|_, queue| !queue.is_empty());
        self.len -= drained.len();
        drained
    }

    /// Removes and returns everything queued (shutdown drain), in pop order
    /// semantics-free tenant order.
    pub(crate) fn drain_all(&mut self) -> Vec<(String, T)> {
        let mut drained = Vec::new();
        for (tenant, queue) in &mut self.queues {
            while let Some(item) = queue.pop_front() {
                drained.push((tenant.clone(), item));
            }
        }
        self.len = 0;
        self.round.clear();
        self.queues.clear();
        drained
    }

    /// The tenants for which the scheduler currently holds *any* state in
    /// its queue map. With pruning this always equals [`Self::backlogged`];
    /// it exists so tests can pin that one-shot tenants leave no residue.
    #[must_use]
    pub fn tracked_tenants(&self) -> Vec<String> {
        self.queues.keys().cloned().collect()
    }

    /// The tenants currently holding a non-empty queue.
    #[must_use]
    pub fn backlogged(&self) -> Vec<String> {
        self.queues
            .iter()
            .filter(|(_, queue)| !queue.is_empty())
            .map(|(tenant, _)| tenant.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn equal_weights() -> WfqScheduler<u32> {
        WfqScheduler::new(BTreeMap::new())
    }

    /// Pops everything, returning just the tenant service order.
    fn service_order(s: &mut WfqScheduler<u32>) -> Vec<String> {
        let mut order = Vec::new();
        while let Some((tenant, _)) = s.pop() {
            order.push(tenant);
        }
        order
    }

    #[test]
    fn a_flooding_tenant_cannot_starve_a_light_one() {
        let mut s = equal_weights();
        for i in 0..10 {
            s.enqueue("heavy", i);
        }
        s.enqueue("light", 100);
        // Shortest queue first: light is served in the very first round,
        // then heavy drains alone.
        let order = service_order(&mut s);
        assert_eq!(order[0], "light");
        assert_eq!(order.len(), 11);
        assert!(order[1..].iter().all(|t| t == "heavy"));
    }

    #[test]
    fn equal_weights_alternate_between_backlogged_tenants() {
        let mut s = equal_weights();
        for i in 0..4 {
            s.enqueue("a", i);
            s.enqueue("b", 10 + i);
        }
        let order = service_order(&mut s);
        // One item per tenant per round: strict alternation (ties by name).
        assert_eq!(order, vec!["a", "b", "a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn weights_shift_the_per_round_share_proportionally() {
        let mut s: WfqScheduler<u32> = WfqScheduler::new(BTreeMap::from([("big".to_string(), 3)]));
        for i in 0..6 {
            s.enqueue("big", i);
        }
        for i in 0..2 {
            s.enqueue("small", 10 + i);
        }
        let order = service_order(&mut s);
        // Per round (shorter queue first): small once, then big ×3 —
        // a 3:1 throughput split while both stay backlogged.
        assert_eq!(
            order,
            vec!["small", "big", "big", "big", "small", "big", "big", "big"]
        );
    }

    #[test]
    fn zero_weights_are_clamped_not_starved() {
        let mut s: WfqScheduler<u32> = WfqScheduler::new(BTreeMap::from([("z".to_string(), 0)]));
        assert_eq!(s.weight("z"), 1);
        s.enqueue("z", 1);
        s.enqueue("other", 2);
        let order = service_order(&mut s);
        assert!(order.contains(&"z".to_string()));
    }

    #[test]
    fn fifo_order_is_preserved_within_a_tenant() {
        let mut s = equal_weights();
        for i in 0..5 {
            s.enqueue("t", i);
        }
        let mut items = Vec::new();
        while let Some((_, item)) = s.pop() {
            items.push(item);
        }
        assert_eq!(items, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drain_matching_coalesces_across_tenants_up_to_the_limit() {
        let mut s = equal_weights();
        s.enqueue("a", 7);
        s.enqueue("a", 3);
        s.enqueue("b", 7);
        s.enqueue("b", 7);
        let drained = s.drain_matching(2, |&item| item == 7);
        assert_eq!(drained.len(), 2, "limit respected");
        assert!(drained.iter().all(|(_, item)| *item == 7));
        assert_eq!(s.len(), 2);
        // The non-matching item and the over-limit duplicate remain.
        let rest: Vec<u32> = {
            let mut rest = Vec::new();
            while let Some((_, item)) = s.pop() {
                rest.push(item);
            }
            rest
        };
        assert!(rest.contains(&3));
        assert!(rest.contains(&7), "over-limit duplicate still queued");
    }

    #[test]
    fn emptied_tenant_queues_are_pruned_without_disturbing_round_credits() {
        // Regression: `queues` used to keep an empty VecDeque per tenant
        // forever, so state grew with every tenant name ever seen.
        let mut s: WfqScheduler<u32> = WfqScheduler::new(BTreeMap::from([("big".to_string(), 3)]));
        for i in 0..6 {
            s.enqueue("big", i);
        }
        for i in 0..2 {
            s.enqueue("small", 10 + i);
        }
        // Same WDRR service order as before pruning existed.
        let mut order = Vec::new();
        let mut tracked_peak = s.tracked_tenants().len();
        while let Some((tenant, _)) = s.pop() {
            order.push(tenant);
            tracked_peak = tracked_peak.max(s.tracked_tenants().len());
            assert_eq!(
                s.tracked_tenants(),
                s.backlogged(),
                "no empty queue entries linger after a pop"
            );
        }
        assert_eq!(
            order,
            vec!["small", "big", "big", "big", "small", "big", "big", "big"]
        );
        assert_eq!(tracked_peak, 2);
        assert!(s.tracked_tenants().is_empty());

        // drain_matching that empties a tenant prunes its entry too.
        s.enqueue("a", 7);
        s.enqueue("b", 7);
        s.enqueue("b", 3);
        let drained = s.drain_matching(usize::MAX, |&item| item == 7);
        assert_eq!(drained.len(), 2);
        assert_eq!(s.tracked_tenants(), vec!["b".to_string()]);

        // drain_all clears the map outright.
        s.enqueue("c", 1);
        s.drain_all();
        assert!(s.tracked_tenants().is_empty());
    }

    #[test]
    fn late_arrivals_join_the_next_round_and_counters_stay_exact() {
        let mut s = equal_weights();
        s.enqueue("a", 1);
        assert_eq!(s.pop().unwrap(), ("a".to_string(), 1));
        assert!(s.pop().is_none());
        s.enqueue("b", 2);
        assert_eq!(s.depth("b"), 1);
        assert_eq!(s.backlogged(), vec!["b"]);
        assert_eq!(s.pop().unwrap(), ("b".to_string(), 2));
        assert!(s.is_empty());
        let drained = s.drain_all();
        assert!(drained.is_empty());
    }
}
