//! The HIDE protocol core (Section III of the paper).
//!
//! HIDE is a cooperation between an access point and its smartphone
//! clients that hides *useless* UDP-padded broadcast frames from clients
//! in suspend mode:
//!
//! 1. Before suspending, a [`client::HideClient`] collects its open UDP
//!    ports and sends them to the AP in a *UDP Port Message*.
//! 2. The [`ap::AccessPoint`] stores them in the
//!    [`ap::ClientPortTable`] and ACKs.
//! 3. At each DTIM boundary the AP runs Algorithm 1
//!    ([`ap::calculate_broadcast_flags`]) over its buffered broadcast
//!    frames and announces per-client *broadcast flags* in a BTIM
//!    element in the beacon.
//! 4. A HIDE client checks only its own BTIM bit; legacy clients keep
//!    following the standard one-bit DTIM indication, so both coexist.
//!
//! # Example
//!
//! ```
//! use hide_core::ap::{AccessPoint, ApCtx};
//! use hide_core::client::{HideClient, OpenPortRegistry, WakeDecision};
//! use hide_wifi::frame::{BeaconView, BroadcastDataFrame};
//! use hide_wifi::mac::MacAddr;
//! use hide_wifi::udp::UdpDatagram;
//!
//! # fn main() -> Result<(), hide_core::CoreError> {
//! let mut ap = AccessPoint::new(MacAddr::station(0));
//! let mut ports = OpenPortRegistry::new();
//! ports.bind(5353, [0, 0, 0, 0])?; // mDNS on INADDR_ANY
//! let mut client = HideClient::new(MacAddr::station(1), ports);
//!
//! // Associate and synchronize ports before suspending.
//! let aid = ap.associate(client.mac())?;
//! client.set_aid(aid);
//! let msg = client.prepare_suspend()?;
//! let ack = ap.process_port_message(&msg, &mut ApCtx::untimed())?;
//! client.handle_ack(&ack)?;
//!
//! // A useless SSDP frame (port 1900) and a useful mDNS frame (5353).
//! ap.enqueue_broadcast(BroadcastDataFrame::new(
//!     ap.bssid(),
//!     UdpDatagram::new([10, 0, 0, 9], [255; 4], 4000, 1900, vec![]),
//!     false,
//! ));
//! // The beacon crosses the air as bytes; the client reads its bit in place.
//! let mut bytes = Vec::new();
//! ap.dtim_beacon(0, &mut bytes);
//! let beacon = BeaconView::parse(&bytes)?;
//! assert_eq!(client.handle_beacon(&beacon)?, WakeDecision::StaySuspended);
//!
//! ap.enqueue_broadcast(BroadcastDataFrame::new(
//!     ap.bssid(),
//!     UdpDatagram::new([10, 0, 0, 9], [255; 4], 4000, 5353, vec![]),
//!     false,
//! ));
//! ap.dtim_beacon(1, &mut bytes);
//! let beacon = BeaconView::parse(&bytes)?;
//! assert_eq!(client.handle_beacon(&beacon)?, WakeDecision::WakeForBroadcast);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ap;
pub mod client;
pub mod error;
pub mod fx;

pub use error::CoreError;
