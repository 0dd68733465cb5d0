//! The client's open UDP port registry.
//!
//! Mirrors the smartphone's socket table. Per Section III.B, only ports
//! bound to the wildcard source address `INADDR_ANY` (`0.0.0.0`) are
//! reported to the AP — ports bound to a specific interface address
//! receive no broadcast traffic through it.

use crate::error::CoreError;
use std::collections::BTreeMap;

/// The wildcard IPv4 address `0.0.0.0`.
pub const INADDR_ANY: [u8; 4] = [0, 0, 0, 0];

/// A client's table of bound UDP ports.
///
/// # Example
///
/// ```
/// use hide_core::client::OpenPortRegistry;
///
/// let mut reg = OpenPortRegistry::new();
/// reg.bind(5353, [0, 0, 0, 0])?;      // mDNS on INADDR_ANY: reported
/// reg.bind(6000, [192, 168, 1, 5])?;  // interface-bound: not reported
/// assert_eq!(reg.reportable_ports(), vec![5353]);
/// reg.close(5353);
/// assert!(reg.reportable_ports().is_empty());
/// # Ok::<(), hide_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenPortRegistry {
    bindings: BTreeMap<u16, [u8; 4]>,
    generation: u64,
}

impl OpenPortRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        OpenPortRegistry::default()
    }

    /// Binds `port` on source address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PortInUse`] when the port is already bound
    /// (one binding per port, as with `SO_REUSEADDR` unset).
    pub fn bind(&mut self, port: u16, addr: [u8; 4]) -> Result<(), CoreError> {
        if self.bindings.contains_key(&port) {
            return Err(CoreError::PortInUse(port));
        }
        self.bindings.insert(port, addr);
        self.generation += 1;
        Ok(())
    }

    /// Closes `port`; closing an unbound port is a no-op.
    pub fn close(&mut self, port: u16) {
        if self.bindings.remove(&port).is_some() {
            self.generation += 1;
        }
    }

    /// Whether a broadcast datagram to `port` would be delivered to an
    /// application on this client — i.e. the port is bound to
    /// `INADDR_ANY`.
    pub fn accepts_broadcast(&self, port: u16) -> bool {
        self.bindings.get(&port) == Some(&INADDR_ANY)
    }

    /// The ports to report in a UDP Port Message: those bound to
    /// `INADDR_ANY`, sorted ascending (Section III.B).
    pub fn reportable_ports(&self) -> Vec<u16> {
        self.bindings
            .iter()
            .filter(|(_, &addr)| addr == INADDR_ANY)
            .map(|(&port, _)| port)
            .collect()
    }

    /// Number of bound ports (any address).
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// `true` when no port is bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Monotonic change counter; bumps on every successful bind/close.
    /// The HIDE agent uses it to decide whether a fresh UDP Port
    /// Message is needed before the next suspend.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_close_cycle() {
        let mut reg = OpenPortRegistry::new();
        reg.bind(80, INADDR_ANY).unwrap();
        assert_eq!(reg.len(), 1);
        assert!(reg.accepts_broadcast(80));
        reg.close(80);
        assert!(!reg.accepts_broadcast(80));
        assert!(reg.is_empty());
    }

    #[test]
    fn double_bind_rejected() {
        let mut reg = OpenPortRegistry::new();
        reg.bind(80, INADDR_ANY).unwrap();
        assert!(matches!(
            reg.bind(80, [10, 0, 0, 1]),
            Err(CoreError::PortInUse(80))
        ));
    }

    #[test]
    fn interface_bound_ports_not_reported() {
        let mut reg = OpenPortRegistry::new();
        reg.bind(1900, INADDR_ANY).unwrap();
        reg.bind(7000, [192, 168, 0, 2]).unwrap();
        assert_eq!(reg.reportable_ports(), vec![1900]);
        assert!(!reg.accepts_broadcast(7000));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn reportable_ports_sorted() {
        let mut reg = OpenPortRegistry::new();
        for p in [500u16, 100, 300] {
            reg.bind(p, INADDR_ANY).unwrap();
        }
        assert_eq!(reg.reportable_ports(), vec![100, 300, 500]);
    }

    #[test]
    fn generation_tracks_changes() {
        let mut reg = OpenPortRegistry::new();
        let g0 = reg.generation();
        reg.bind(80, INADDR_ANY).unwrap();
        let g1 = reg.generation();
        assert!(g1 > g0);
        reg.close(80);
        assert!(reg.generation() > g1);
        let g2 = reg.generation();
        reg.close(80); // no-op
        assert_eq!(reg.generation(), g2);
        let _ = reg.bind(81, INADDR_ANY);
        assert!(reg.generation() > g2);
    }

    #[test]
    fn failed_bind_does_not_bump_generation() {
        let mut reg = OpenPortRegistry::new();
        reg.bind(80, INADDR_ANY).unwrap();
        let g = reg.generation();
        let _ = reg.bind(80, INADDR_ANY);
        assert_eq!(reg.generation(), g);
    }
}
