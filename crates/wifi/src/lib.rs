//! 802.11 substrate for the HIDE reproduction.
//!
//! This crate implements everything the HIDE protocol (Peng et al., ICDCS
//! 2016) needs from the 802.11 stack, built from scratch:
//!
//! * MAC addressing, association IDs and frame-control fields ([`mac`]),
//! * wire-format encoding/decoding of beacon frames, the new *UDP Port
//!   Message* management frame, ACKs and UDP-padded broadcast data frames
//!   ([`frame`]),
//! * information elements including the standard TIM, the paper's new
//!   Broadcast Traffic Indication Map (BTIM, element ID 201) and Open UDP
//!   Ports (element ID 200) elements ([`ie`]),
//! * the partial-virtual-bitmap compression shared by TIM and BTIM
//!   ([`bitmap`]),
//! * LLC/SNAP + IPv4 + UDP payload parsing used by the AP to extract UDP
//!   destination ports from buffered broadcast frames ([`udp`]),
//! * a PHY airtime model for 802.11b rates ([`phy`]),
//! * the 802.11 time unit ([`timing`]), and
//! * the Bianchi DCF saturation-throughput model used by the paper's
//!   capacity-overhead analysis ([`dcf`]).
//!
//! # Example
//!
//! Write a beacon carrying a BTIM element and read it back in place:
//!
//! ```
//! use hide_wifi::bitmap::PartialVirtualBitmap;
//! use hide_wifi::frame::{BeaconFields, BeaconView};
//! use hide_wifi::mac::{Aid, MacAddr};
//!
//! # fn main() -> Result<(), hide_wifi::WifiError> {
//! let mut flags = PartialVirtualBitmap::new();
//! flags.set(Aid::new(5)?);
//!
//! let mut bytes = Vec::new();
//! BeaconFields {
//!     bssid: MacAddr::new([2, 0, 0, 0, 0, 1]),
//!     timestamp_us: 1_024_000,
//!     ssid: "hide-net",
//!     dtim_count: 0,
//!     dtim_period: 3,
//!     broadcast_buffered: true,
//!     unicast: &PartialVirtualBitmap::new(),
//!     btim: Some(&flags),
//! }
//! .write(&mut bytes);
//!
//! let beacon = BeaconView::parse(&bytes)?;
//! assert!(beacon.btim().unwrap().is_set(Aid::new(5)?));
//! assert!(!beacon.btim().unwrap().is_set(Aid::new(6)?));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assoc;
pub mod bitmap;
pub mod dcf;
pub mod error;
pub mod frame;
pub mod ie;
pub mod mac;
pub mod phy;
pub mod timing;
pub mod udp;

pub use error::WifiError;
pub use mac::{Aid, MacAddr};
pub use phy::DataRate;
