//! Tenant-churn leak check: thousands of one-shot tenants flowing through
//! admission control and the weighted-fair scheduler must leave **no**
//! per-tenant state behind — admission's `per_tenant` map (of which the
//! `{tenant=...}`-labelled admission gauges are a view) and the scheduler's
//! queue map are both bounded by the tenants *currently* active, never by
//! the tenants ever seen. Scheduling semantics stay intact while entries churn: items are
//! conserved, per-tenant FIFO order holds, and a persistent weighted tenant
//! keeps its weighted share of service.

use proptest::prelude::*;
use sisa_service::{Admission, AdmissionConfig, WfqScheduler};
use std::collections::BTreeMap;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #[test]
    fn one_shot_tenant_floods_leave_state_bounded_by_the_active_set(
        seed in 0u64..1_000_000,
        waves in 4usize..12,
        wave_size in 20usize..120,
        heavy_weight in 2u64..5,
    ) {
        let admission = Admission::new(AdmissionConfig {
            queue_capacity: 4096,
            per_tenant_inflight: 8,
            ..AdmissionConfig::default()
        });
        let mut weights = BTreeMap::new();
        weights.insert("heavy".to_string(), heavy_weight);
        let mut wfq: WfqScheduler<u64> = WfqScheduler::new(weights);

        let mut rng = seed;
        let mut next_item = 0u64;
        let mut issued = 0usize;
        // Per-tenant FIFO model: what each tenant still has queued, in order.
        let mut model: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let mut popped = 0usize;
        let mut heavy_pops = 0u64;
        let mut oneshot_pops = 0u64;

        for wave in 0..waves {
            // A persistent weighted tenant rides along with every wave...
            for _ in 0..4 {
                admission.try_admit("heavy").unwrap();
                wfq.enqueue("heavy", next_item);
                model.entry("heavy".to_string()).or_default().push(next_item);
                next_item += 1;
            }
            // ...amid a flood of single-use tenants, each seen exactly once.
            for i in 0..wave_size {
                let tenant = format!("one-shot-{wave}-{i}");
                admission.try_admit(&tenant).unwrap();
                wfq.enqueue(&tenant, next_item);
                model.entry(tenant).or_default().push(next_item);
                next_item += 1;
                issued += 1;
            }

            // While backlogged, tracked state covers exactly the backlogged
            // tenants — never tenants from drained earlier waves.
            let backlogged = model.values().filter(|q| !q.is_empty()).count();
            prop_assert_eq!(wfq.tracked_tenants().len(), backlogged);
            prop_assert!(admission.tracked_tenants().len() <= backlogged);

            // Drain a random large fraction of the backlog, completing each
            // admission slot as its item is served.
            let to_pop = wfq.len() - (splitmix(&mut rng) as usize % 4);
            for _ in 0..to_pop {
                let (tenant, item) = wfq.pop().expect("backlog is non-empty");
                let queue = model.get_mut(&tenant).expect("known tenant");
                prop_assert_eq!(queue.remove(0), item, "per-tenant FIFO order");
                admission.complete(&tenant);
                popped += 1;
                if tenant == "heavy" {
                    heavy_pops += 1;
                } else {
                    oneshot_pops += 1;
                }
            }
        }

        // Drain the tail.
        while let Some((tenant, item)) = wfq.pop() {
            let queue = model.get_mut(&tenant).expect("known tenant");
            prop_assert_eq!(queue.remove(0), item, "per-tenant FIFO order");
            admission.complete(&tenant);
            popped += 1;
        }

        // Conservation: every enqueued item popped exactly once.
        prop_assert_eq!(popped, issued + waves * 4);
        prop_assert!(model.values().all(Vec::is_empty));
        // The weighted tenant was actually served alongside the churn (the
        // exact interleaving is pinned by the WDRR unit tests).
        prop_assert!(heavy_pops > 0 && oneshot_pops > 0);

        // After full drain + completion, *zero* per-tenant state survives
        // anywhere, despite thousands of distinct tenants having passed
        // through: the maps are empty, not merely zero-valued.
        prop_assert!(wfq.is_empty());
        prop_assert_eq!(wfq.tracked_tenants().len(), 0);
        prop_assert_eq!(admission.in_flight(), 0);
        prop_assert_eq!(admission.tracked_tenants().len(), 0);
    }
}
