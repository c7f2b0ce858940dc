//! Admission control: bounded in-flight queues and per-tenant quotas.
//!
//! Every query passes through [`Admission::try_admit`] before it may enter
//! the dispatch queue. The controller enforces two limits — a global
//! in-flight cap (the bounded queue that keeps overload from growing memory
//! without bound) and a per-tenant in-flight quota (isolation between
//! tenants) — and answers refusals with an explicit
//! [`Rejection`]`{ retry_after_ms }` instead of blocking.

use crate::query::Rejection;
use sisa_core::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Limits enforced by the admission controller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queries in flight (queued + executing) across all tenants.
    pub queue_capacity: usize,
    /// Maximum queries in flight per tenant.
    pub per_tenant_inflight: usize,
    /// Base retry hint returned with rejections, scaled up with load, in
    /// milliseconds.
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 256,
            per_tenant_inflight: 16,
            retry_after_ms: 20,
        }
    }
}

#[derive(Debug, Default)]
struct AdmState {
    in_flight: usize,
    per_tenant: BTreeMap<String, usize>,
    rejected: u64,
}

/// The back-off hint for a rejection issued while `occupancy` of `capacity`
/// global queue slots are taken: the configured base at an empty queue,
/// growing linearly to 5× base at a full queue. Monotone in `occupancy`, so
/// clients back off proportionally harder the deeper the congestion.
fn retry_hint(base_ms: u64, occupancy: usize, capacity: usize) -> u64 {
    let base = base_ms.max(1);
    if capacity == 0 {
        return base.saturating_mul(5);
    }
    base.saturating_add(base.saturating_mul(4).saturating_mul(occupancy as u64) / capacity as u64)
}

/// The shared admission controller (one per service).
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    state: Mutex<AdmState>,
}

impl Admission {
    /// Creates a controller with the given limits.
    #[must_use]
    pub fn new(cfg: AdmissionConfig) -> Self {
        Admission {
            cfg,
            state: Mutex::new(AdmState::default()),
        }
    }

    /// Reserves one in-flight slot for `tenant`, or rejects with a back-off
    /// hint. Every successful admit must be paired with exactly one
    /// [`Admission::complete`].
    ///
    /// # Errors
    ///
    /// Returns the [`Rejection`] when the global queue or the tenant's quota
    /// is full.
    pub fn try_admit(&self, tenant: &str) -> Result<(), Rejection> {
        let mut state = self.state.lock().expect("admission lock");
        if state.in_flight >= self.cfg.queue_capacity {
            state.rejected += 1;
            // Scale the hint with actual queue occupancy so heavier
            // congestion backs clients off proportionally harder.
            let retry = retry_hint(
                self.cfg.retry_after_ms,
                state.in_flight,
                self.cfg.queue_capacity,
            );
            return Err(Rejection {
                retry_after_ms: retry,
                reason: format!(
                    "service saturated: {} queries in flight (capacity {})",
                    state.in_flight, self.cfg.queue_capacity
                ),
            });
        }
        let tenant_inflight = state.per_tenant.get(tenant).copied().unwrap_or(0);
        if tenant_inflight >= self.cfg.per_tenant_inflight {
            state.rejected += 1;
            return Err(Rejection {
                retry_after_ms: retry_hint(
                    self.cfg.retry_after_ms,
                    state.in_flight,
                    self.cfg.queue_capacity,
                ),
                reason: format!(
                    "tenant {tenant:?} quota exceeded: {tenant_inflight} in flight (quota {})",
                    self.cfg.per_tenant_inflight
                ),
            });
        }
        state.in_flight += 1;
        *state.per_tenant.entry(tenant.to_string()).or_insert(0) += 1;
        Ok(())
    }

    /// Releases the slot reserved by a successful [`Admission::try_admit`].
    pub fn complete(&self, tenant: &str) {
        let mut state = self.state.lock().expect("admission lock");
        state.in_flight = state.in_flight.saturating_sub(1);
        if let Some(n) = state.per_tenant.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                state.per_tenant.remove(tenant);
            }
        }
    }

    /// Queries currently in flight (queued + executing).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.state.lock().expect("admission lock").in_flight
    }

    /// Total queries rejected over the controller's lifetime.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.state.lock().expect("admission lock").rejected
    }

    /// Writes the controller's series into `snapshot`: the global in-flight
    /// gauge, one labelled gauge per tenant with a slot in flight (a tenant
    /// whose count drops to zero has no entry, so the labels are bounded by
    /// the *active* tenants) and the rejection counter once it is non-zero.
    pub(crate) fn export(&self, snapshot: &mut MetricsSnapshot) {
        let state = self.state.lock().expect("admission lock");
        let gauges = &mut snapshot.gauges;
        gauges.insert(
            "sisa_admission_in_flight".to_string(),
            state.in_flight as i64,
        );
        for (tenant, &n) in &state.per_tenant {
            let name = format!("sisa_admission_tenant_in_flight{{tenant=\"{tenant}\"}}");
            gauges.insert(name, n as i64);
        }
        if state.rejected > 0 {
            let name = "sisa_admission_rejected_total".to_string();
            snapshot.counters.insert(name, state.rejected);
        }
    }

    /// The configured limits.
    #[must_use]
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// The tenants for which the controller currently holds per-tenant
    /// state. Entries are pruned the moment a tenant's in-flight count hits
    /// zero, so this is bounded by the *concurrently active* tenants, not by
    /// every tenant name ever admitted; exposed so tests can pin that.
    #[must_use]
    pub fn tracked_tenants(&self) -> Vec<String> {
        self.state
            .lock()
            .expect("admission lock")
            .per_tenant
            .keys()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_capacity_bounds_in_flight_queries() {
        let adm = Admission::new(AdmissionConfig {
            queue_capacity: 2,
            per_tenant_inflight: 8,
            retry_after_ms: 5,
        });
        assert!(adm.try_admit("a").is_ok());
        assert!(adm.try_admit("b").is_ok());
        let rej = adm.try_admit("c").unwrap_err();
        assert!(rej.retry_after_ms >= 5, "{rej:?}");
        assert!(rej.reason.contains("saturated"));
        assert_eq!(adm.rejected(), 1);
        adm.complete("a");
        assert!(adm.try_admit("c").is_ok());
        assert_eq!(adm.in_flight(), 2);
    }

    #[test]
    fn per_tenant_quota_isolates_tenants() {
        let adm = Admission::new(AdmissionConfig {
            queue_capacity: 100,
            per_tenant_inflight: 1,
            retry_after_ms: 7,
        });
        assert!(adm.try_admit("noisy").is_ok());
        let rej = adm.try_admit("noisy").unwrap_err();
        assert_eq!(rej.retry_after_ms, 7);
        assert!(rej.reason.contains("quota"));
        assert!(adm.try_admit("quiet").is_ok(), "other tenants unaffected");
        adm.complete("noisy");
        assert!(adm.try_admit("noisy").is_ok());
    }

    fn exported(adm: &Admission) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        adm.export(&mut snap);
        snap
    }

    #[test]
    fn metrics_track_in_flight_and_rejections() {
        let adm = Admission::new(AdmissionConfig {
            queue_capacity: 1,
            per_tenant_inflight: 1,
            retry_after_ms: 5,
        });
        adm.try_admit("t").unwrap();
        let snap = exported(&adm);
        assert_eq!(snap.gauges["sisa_admission_in_flight"], 1);
        assert_eq!(
            snap.gauges["sisa_admission_tenant_in_flight{tenant=\"t\"}"],
            1
        );
        assert!(adm.try_admit("t").is_err());
        assert_eq!(exported(&adm).counters["sisa_admission_rejected_total"], 1);
        adm.complete("t");
        let snap = exported(&adm);
        assert_eq!(snap.gauges["sisa_admission_in_flight"], 0);
        assert!(
            !snap
                .gauges
                .contains_key("sisa_admission_tenant_in_flight{tenant=\"t\"}"),
            "a tenant with nothing in flight has no labelled gauge at all"
        );
    }

    #[test]
    fn tenant_state_and_gauges_are_pruned_when_in_flight_drops_to_zero() {
        // Regression: per-tenant residue must be bounded by *concurrently
        // active* tenants. The in-flight map already pruned zero entries;
        // the labelled gauge used to stay at 0 forever.
        let adm = Admission::new(AdmissionConfig::default());
        for i in 0..100 {
            let tenant = format!("one-shot-{i}");
            adm.try_admit(&tenant).unwrap();
            assert_eq!(adm.tracked_tenants(), vec![tenant.clone()]);
            adm.complete(&tenant);
            assert!(adm.tracked_tenants().is_empty());
        }
        let snap = exported(&adm);
        let labelled = snap
            .gauges
            .keys()
            .filter(|name| name.starts_with("sisa_admission_tenant_in_flight"))
            .count();
        assert_eq!(labelled, 0, "no per-tenant gauge survives completion");
        assert_eq!(snap.gauges["sisa_admission_in_flight"], 0);
        assert!(snap.counters.is_empty(), "no rejection, no counter");
    }

    #[test]
    fn retry_hints_scale_monotonically_with_queue_occupancy() {
        let base = 20;
        let capacity = 256;
        let mut previous = 0;
        for occupancy in 0..=capacity {
            let hint = retry_hint(base, occupancy, capacity);
            assert!(
                hint >= previous,
                "occupancy {occupancy}: hint {hint} < previous {previous}"
            );
            previous = hint;
        }
        assert_eq!(retry_hint(base, 0, capacity), base, "empty queue: base");
        assert_eq!(
            retry_hint(base, capacity, capacity),
            5 * base,
            "full queue: 5x base"
        );
        // A saturated rejection must back off at least as hard as the old
        // flat 2x hint did.
        assert!(retry_hint(base, capacity, capacity) >= 2 * base);
        // Degenerate configs stay sane.
        assert_eq!(retry_hint(0, 10, 0), 5, "zero base clamps to 1ms, 5x");
        assert!(retry_hint(u64::MAX, 1, 1) > 0, "no overflow panic");
    }

    #[test]
    fn deeper_congestion_produces_larger_hints_end_to_end() {
        let adm = Admission::new(AdmissionConfig {
            queue_capacity: 4,
            per_tenant_inflight: 1,
            retry_after_ms: 10,
        });
        adm.try_admit("a").unwrap();
        let shallow = adm.try_admit("a").unwrap_err().retry_after_ms;
        adm.try_admit("b").unwrap();
        adm.try_admit("c").unwrap();
        adm.try_admit("d").unwrap();
        let deep = adm.try_admit("a").unwrap_err().retry_after_ms;
        assert!(
            deep > shallow,
            "4/4 occupancy ({deep} ms) must hint harder than 1/4 ({shallow} ms)"
        );
    }

    #[test]
    fn completion_is_idempotent_per_slot() {
        let adm = Admission::new(AdmissionConfig::default());
        adm.try_admit("t").unwrap();
        adm.complete("t");
        adm.complete("t"); // stray completes must not underflow
        assert_eq!(adm.in_flight(), 0);
    }
}
