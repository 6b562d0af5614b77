//! Tenant identity and per-tenant serving quotas.
//!
//! The paper's aperiodic-server treatment (§2.2, footnote 1) is
//! single-stream: one FIFO queue shares the whole server budget. A
//! million-user serving scenario needs a tenant dimension — every request
//! belongs to a [`TenantId`], and each tenant holds a [`TenantQuota`]: the
//! slice of the server's per-period budget that is guaranteed to that
//! tenant, plus a backlog bound that caps how much latency debt the tenant
//! may accumulate before old requests are shed.

use core::fmt;

use crate::time::Work;

/// Identifies one tenant of a multi-tenant aperiodic server.
///
/// A plain 64-bit id: stable across checkpoints, cheap to copy, ordered so
/// dispatch and reporting can iterate tenants deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u64);

impl TenantId {
    /// Creates a tenant id from its raw number.
    #[must_use]
    pub const fn from_raw(id: u64) -> TenantId {
        TenantId(id)
    }

    /// The raw number.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// One tenant's reservation on a multi-tenant aperiodic server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// The tenant this reservation belongs to.
    pub tenant: TenantId,
    /// Guaranteed CPU budget per server period. Replenished to this value
    /// at every server release; the sum over all tenants must fit in the
    /// server's admitted budget for the guarantee to mean anything.
    pub quota: Work,
    /// Maximum queued (not yet finished) requests before backpressure
    /// sheds the oldest one to admit a new arrival.
    pub max_backlog: usize,
}

impl TenantQuota {
    /// Creates a reservation.
    #[must_use]
    pub fn new(tenant: TenantId, quota: Work, max_backlog: usize) -> TenantQuota {
        TenantQuota {
            tenant,
            quota,
            max_backlog,
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;

    #[test]
    fn tenant_id_round_trips_and_displays() {
        let t = TenantId::from_raw(7);
        assert_eq!(t.raw(), 7);
        assert_eq!(t.to_string(), "tenant7");
        assert!(TenantId::from_raw(1) < TenantId::from_raw(2));
    }

    #[test]
    fn quota_carries_its_fields() {
        let q = TenantQuota::new(TenantId::from_raw(3), Work::from_ms(0.5), 64);
        assert_eq!(q.tenant.raw(), 3);
        assert_eq!(q.quota.as_ms(), 0.5);
        assert_eq!(q.max_backlog, 64);
    }
}
